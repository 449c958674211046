package dist

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/par"
)

// fleetSpec is a 2-variable × trials campaign — enough jobs to spread
// over several leases.
func fleetSpec(name string, trials int) campaign.Spec {
	return campaign.Spec{
		Name:      name,
		Seed:      11,
		Missions:  []campaign.MissionSpec{{Kind: "line", Size: 40, Alt: 10}},
		Variables: []string{"PIDR.INTEG", "CMD.Roll"},
		Goals:     []string{campaign.GoalDeviation},
		Defenses:  []string{campaign.DefenseNone},
		Trials:    trials,
		Episodes:  1,
		MaxSteps:  4,
	}
}

// fleetExec is deterministic in job.Seed alone — including a
// deterministic failure slice — so any placement of any job on any
// worker produces the same record bytes.
func fleetExec(_ context.Context, job campaign.Job) (campaign.Metrics, error) {
	if job.Seed%5 == 0 {
		return campaign.Metrics{}, fmt.Errorf("synthetic fault for seed %d", job.Seed)
	}
	return campaign.Metrics{
		Deviation: float64(job.Seed%1000) / 16,
		Return:    float64(job.Seed % 37),
		Detected:  job.Seed%3 == 0,
		Success:   job.Seed%3 != 0,
	}, nil
}

// localRun executes the spec on a plain single-node runner and returns
// the canonical sorted artifact plus the aggregate summary — the baseline
// every fleet topology must reproduce byte for byte.
func localRun(t testing.TB, spec campaign.Spec) ([]byte, *campaign.Summary, []campaign.Record) {
	t.Helper()
	store, err := campaign.OpenStore(t.TempDir() + "/local.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := &campaign.Runner{Workers: 2, Execute: fleetExec}
	if _, err := r.Run(context.Background(), spec, store); err != nil {
		t.Fatal(err)
	}
	sorted, err := campaign.SortedBytes(store.Records())
	if err != nil {
		t.Fatal(err)
	}
	return sorted, campaign.Aggregate(spec.Name, store.Records()), store.Records()
}

// Exported to the external fleet tests (fleet_test.go), which import
// internal/serve and so cannot live in package dist.
var (
	FleetSpec = fleetSpec
	FleetExec = fleetExec
	LocalRun  = localRun
)

// TestDrainWithActiveLease is the drain-race regression: a lease still
// held at SIGTERM must land its unfinished jobs in the queue manifest as
// pending — not dropped — and a fresh coordinator over the same store
// must re-lease exactly the unmerged remainder.
func TestDrainWithActiveLease(t *testing.T) {
	dir := t.TempDir()
	spec := fleetSpec("drain-race", 2)
	_, _, recs := localRun(t, spec)
	recFor := make(map[string]campaign.Record, len(recs))
	for _, r := range recs {
		recFor[r.Key] = r
	}

	c, err := NewCoordinator(CoordConfig{
		StoreDir: dir, LeaseTTL: time.Hour, MaxLease: 64, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, code := c.Submit(spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	grant, err := c.Lease(LeaseRequest{Worker: "w0", Max: 64})
	if err != nil || grant.Lease == "" {
		t.Fatalf("lease = (%+v, %v), want a grant", grant, err)
	}
	total := len(spec.Expand())
	if len(grant.Keys) != total {
		t.Fatalf("lease granted %d keys, want all %d", len(grant.Keys), total)
	}
	// One record streams before the SIGTERM; the rest of the lease is
	// still active when the coordinator drains.
	first := grant.Keys[0]
	if _, _, err := c.MergeRecords(RecordsRequest{
		Worker: "w0", Lease: grant.Lease, Offset: 0,
		Records: []campaign.Record{recFor[first]},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if hb := c.Heartbeat(HeartbeatRequest{Worker: "w0", Lease: grant.Lease}); !hb.Abandon {
		t.Error("post-drain heartbeat did not order abandon")
	}

	man, err := LoadManifest(ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(man) != 1 || man[0].ID != st.ID {
		t.Fatalf("manifest = %+v, want the drained campaign %s pending", man, st.ID)
	}

	// Life 2: the unfinished remainder — and nothing more — is pending.
	c2, err := NewCoordinator(CoordConfig{
		StoreDir: dir, LeaseTTL: time.Hour, MaxLease: 64, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Shutdown()
	g2, err := c2.Lease(LeaseRequest{Worker: "w1", Max: 64})
	if err != nil || g2.Campaign != st.ID {
		t.Fatalf("life-2 lease = (%+v, %v)", g2, err)
	}
	if len(g2.Keys) != total-1 {
		t.Fatalf("life-2 pending = %d keys, want %d (drained lease released, merged record kept)",
			len(g2.Keys), total-1)
	}
	batch := make([]campaign.Record, 0, len(g2.Keys))
	for _, k := range g2.Keys {
		batch = append(batch, recFor[k])
	}
	if _, _, err := c2.MergeRecords(RecordsRequest{
		Worker: "w1", Lease: g2.Lease, Offset: 0, Records: batch,
	}); err != nil {
		t.Fatal(err)
	}
	c2.Complete(CompleteRequest{Worker: "w1", Lease: g2.Lease})
	st2, ok := c2.Status(st.ID)
	if !ok || (st2.State != StateDone && st2.State != StateFailed) {
		t.Fatalf("life-2 state = %+v, want terminal", st2)
	}
	man2, err := LoadManifest(ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(man2) != 0 {
		t.Fatalf("finished campaign still in manifest: %+v", man2)
	}
}

// TestMergeOrderInvariance is the property test: record arrival order
// shuffled across N simulated workers — interleaved leases, random batch
// splits, occasional duplicate retries — merges to a store byte-identical
// to the sequential local artifact.
func TestMergeOrderInvariance(t *testing.T) {
	spec := fleetSpec("merge-order", 3)
	wantSorted, _, recs := localRun(t, spec)
	recFor := make(map[string]campaign.Record, len(recs))
	for _, r := range recs {
		recFor[r.Key] = r
	}

	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("shuffle-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			c, err := NewCoordinator(CoordConfig{
				StoreDir: dir, LeaseTTL: time.Hour, MaxLease: 3, Metrics: metrics.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			st, _ := c.Submit(spec)

			// Lease everything out across 3 simulated workers.
			type held struct {
				worker, lease string
				keys          []string
				sent          int
			}
			var grants []*held
			for {
				worker := fmt.Sprintf("sim%d", rng.Intn(3))
				g, err := c.Lease(LeaseRequest{Worker: worker})
				if err != nil {
					t.Fatal(err)
				}
				if g.Lease == "" {
					break
				}
				grants = append(grants, &held{worker: worker, lease: g.Lease, keys: g.Keys})
			}

			// Deliver in shuffled interleavings, batch sizes 1..3, with a
			// 1-in-3 chance of resending the previous record (a retry the
			// offset protocol must dedup).
			for live := len(grants); live > 0; {
				g := grants[rng.Intn(len(grants))]
				if g.sent == len(g.keys) {
					continue
				}
				off := g.sent
				if off > 0 && rng.Intn(3) == 0 {
					off-- // retry overlap
				}
				end := g.sent + 1 + rng.Intn(3)
				if end > len(g.keys) {
					end = len(g.keys)
				}
				batch := make([]campaign.Record, 0, end-off)
				for _, k := range g.keys[off:end] {
					batch = append(batch, recFor[k])
				}
				resp, _, err := c.MergeRecords(RecordsRequest{
					Worker: g.worker, Lease: g.lease, Offset: off, Records: batch,
				})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Next != end {
					t.Fatalf("acked %d, want %d", resp.Next, end)
				}
				g.sent = end
				if g.sent == len(g.keys) {
					if ok := c.Complete(CompleteRequest{Worker: g.worker, Lease: g.lease}); !ok.OK {
						t.Fatalf("complete refused for %s", g.lease)
					}
					live--
				}
			}

			sorted, err := os.ReadFile(SortedArtifactPath(dir, st.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sorted, wantSorted) {
				t.Errorf("shuffled merge diverges from sequential artifact:\n%s\nvs\n%s", sorted, wantSorted)
			}
		})
	}
}

// TestWireStrictness pins the decode gate: unknown fields, trailing data,
// oversize bodies and malformed worker IDs are refused.
func TestWireStrictness(t *testing.T) {
	if _, err := decodeWire[RegisterRequest](strings.NewReader(`{"worker":"a","extra":1}`), maxControlBytes); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := decodeWire[RegisterRequest](strings.NewReader(`{"worker":"a"} {"worker":"b"}`), maxControlBytes); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := decodeWire[RegisterRequest](strings.NewReader(`{"worker":"a"}`), 4); err == nil {
		t.Error("oversize body accepted")
	}
	if _, err := decodeWire[RegisterRequest](strings.NewReader(`{"worker":"ok-1"}`), maxControlBytes); err != nil {
		t.Errorf("valid envelope refused: %v", err)
	}
	for _, id := range []string{"", "has space", "has/slash", "tab\tid", strings.Repeat("x", 129), "ctl\x01"} {
		if validWorkerID(id) == nil {
			t.Errorf("worker id %q accepted", id)
		}
	}
	if err := validWorkerID("bench-host-42"); err != nil {
		t.Errorf("valid worker id refused: %v", err)
	}
}

// TestShardStability pins shard arithmetic: deterministic, in-range, and
// only a function of (campaign, key, n).
func TestShardStability(t *testing.T) {
	counts := make(map[int]int)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("m0/v%d/t%02d", i%4, i)
		s := shardOf("abc123", k, 3)
		if s < 0 || s >= 3 {
			t.Fatalf("shardOf out of range: %d", s)
		}
		if s2 := shardOf("abc123", k, 3); s2 != s {
			t.Fatalf("shardOf not deterministic: %d vs %d", s, s2)
		}
		counts[s]++
	}
	if len(counts) != 3 {
		t.Errorf("64 keys landed on %d of 3 shards: %v", len(counts), counts)
	}
	if shardOf("abc123", "k", 1) != 0 || shardOf("abc123", "k", 0) != 0 {
		t.Error("degenerate fleet sizes must map to shard 0")
	}
}

// TestFinalizeClosesStores is the store-leak regression: finalizing a
// campaign closes its store and drops its merge state, so the process's
// open file descriptors stay flat across many finished campaigns.
func TestFinalizeClosesStores(t *testing.T) {
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(ents)
	}
	countFDs()
	c, err := NewCoordinator(CoordConfig{
		StoreDir: t.TempDir(), LeaseTTL: time.Hour, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	w := c.InProcessWorker("local-0", fleetExec, par.NewBudget(1))
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() { defer close(exited); _ = w.Run(ctx) }()
	defer func() { cancel(); <-exited }()
	before := countFDs()

	const n = 50
	ids := make([]string, n)
	for i := range ids {
		spec := fleetSpec(fmt.Sprintf("fd-%d", i), 1)
		spec.Seed = int64(100 + i)
		st, code := c.Submit(spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, code)
		}
		ids[i] = st.ID
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, id := range ids {
		for {
			st, _ := c.Status(id)
			if st.State == StateDone || st.State == StateFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s stuck in %q", id, st.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if after := countFDs(); after > before+2 {
		t.Errorf("open files grew from %d to %d across %d finalized campaigns", before, after, n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if cs := c.campaigns[id]; cs.store != nil || cs.slots != nil || cs.index != nil || cs.jobs != nil {
			t.Fatalf("finalized campaign %s kept its merge state", id)
		}
	}
}
