package dist

import (
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/cpv"
	"github.com/ares-cps/ares/internal/metrics"
)

// newLeaseCoordinator submits spec to a fresh coordinator with the given
// lease cap and registers workers, and returns the coordinator, the
// campaign ID and each job's record by key.
func newLeaseCoordinator(t *testing.T, spec campaign.Spec, maxLease int, workers ...string) (*Coordinator, string, map[string]campaign.Record) {
	t.Helper()
	_, _, recs := localRun(t, spec)
	recFor := make(map[string]campaign.Record, len(recs))
	for _, r := range recs {
		recFor[r.Key] = r
	}
	c, err := NewCoordinator(CoordConfig{
		StoreDir: t.TempDir(), LeaseTTL: time.Hour, MaxLease: maxLease, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	for _, w := range workers {
		if _, err := c.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	st, code := c.Submit(spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	return c, st.ID, recFor
}

// finishLease streams every record of a grant and completes it.
func finishLease(t *testing.T, c *Coordinator, worker string, g LeaseResponse, recFor map[string]campaign.Record) {
	t.Helper()
	batch := make([]campaign.Record, 0, len(g.Keys))
	for _, k := range g.Keys {
		batch = append(batch, recFor[k])
	}
	if _, _, err := c.MergeRecords(RecordsRequest{Worker: worker, Lease: g.Lease, Records: batch}); err != nil {
		t.Fatal(err)
	}
	if ok := c.Complete(CompleteRequest{Worker: worker, Lease: g.Lease}); !ok.OK {
		t.Fatalf("complete refused for %s", g.Lease)
	}
}

// TestLeaseGrantBalancesWorkers replays the catalog-fleet campaign (the
// whole CPV catalog, 2 trials, 12 episodes) on two fleet workers over a
// virtual clock: a job lasts its trial-episodes, a worker runs its lease
// on its slots the way campaign.Runner does (each job on the first free
// slot) and leases again only when its last slot finishes, and whichever
// worker is free first leases next. Both must run out of work within one
// job of each other. Leases of the first MaxLease jobs in expansion order
// gave one worker all eight 13-episode CPV-001/002 cells: with one slot it
// finished at 104 while the other finished at 58.
func TestLeaseGrantBalancesWorkers(t *testing.T) {
	spec, err := cpv.CompileIDs(cpv.Options{Name: "catalog-fleet", Seed: 1,
		Trials: 2, Episodes: 12, MaxSteps: 60}, cpv.IDs()...)
	if err != nil {
		t.Fatal(err)
	}
	cost := make(map[string]int)
	longest := 0
	for _, j := range spec.Expand() {
		cost[j.Key] = j.TrialEpisodes()
		longest = max(longest, cost[j.Key])
	}
	for _, slots := range []int{1, 2} {
		t.Run(fmt.Sprintf("slots%d", slots), func(t *testing.T) {
			workers := []string{"w1", "w2"}
			c, id, recFor := newLeaseCoordinator(t, spec, 8, workers...)
			free := make([]int, len(workers)) // when each worker next asks
			held := make([]LeaseResponse, len(workers))
			done := make([]bool, len(workers))
			for slices.Contains(done, false) {
				w := -1
				for i := range workers {
					if !done[i] && (w < 0 || free[i] < free[w]) {
						w = i
					}
				}
				if held[w].Lease != "" {
					finishLease(t, c, workers[w], held[w], recFor)
				}
				g, err := c.Lease(LeaseRequest{Worker: workers[w], Slots: slots})
				if err != nil {
					t.Fatal(err)
				}
				held[w] = g
				if g.Lease == "" {
					done[w] = true
					continue
				}
				start, lanes := free[w], make([]int, slots)
				for _, k := range g.Keys {
					lanes[slices.Index(lanes, slices.Min(lanes))] += cost[k]
				}
				free[w] = start + slices.Max(lanes)
				t.Logf("t=%3d %s leases %d job(s), busy until %d", start, workers[w], len(g.Keys), free[w])
			}
			// fleetExec fails some seeds on purpose: a terminal state means
			// every slot merged.
			if st, _ := c.Status(id); st.State != StateDone && st.State != StateFailed {
				t.Fatalf("campaign %s = %+v, want terminal", id, st)
			}
			if d := free[0] - free[1]; d > longest || -d > longest {
				t.Errorf("workers ran out of work at %d and %d; the gap exceeds the longest job (%d)", free[0], free[1], longest)
			}
		})
	}
}

// TestLeaseGrantCheapestFirst: a mixed campaign's lease lists every
// stealthy key (one flight) before any RL key (Episodes+1 flights), each
// group in expansion order, for a fleet worker and an in-process one.
func TestLeaseGrantCheapestFirst(t *testing.T) {
	spec := fleetSpec("cheapest-first", 2)
	spec.Attacks = []string{campaign.AttackRL, campaign.AttackStealthy}
	var stealthy, rl []string
	for _, j := range spec.Expand() {
		if j.Attack == campaign.AttackStealthy {
			stealthy = append(stealthy, j.Key)
		} else {
			rl = append(rl, j.Key)
		}
	}
	want := append(stealthy, rl...)

	c, _, _ := newLeaseCoordinator(t, spec, len(want), "w0")
	g, err := c.Lease(LeaseRequest{Worker: "w0", Slots: len(want)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.Keys, want) {
		t.Errorf("fleet lease order:\n got %q\nwant %q", g.Keys, want)
	}

	c, _, _ = newLeaseCoordinator(t, spec, 1)
	if g := c.leaseCampaign("local"); !slices.Equal(g.Keys, want) {
		t.Errorf("in-process lease order:\n got %q\nwant %q", g.Keys, want)
	}
}

// TestLeaseGrantSlotsFloor: a lease is ⌈pending / 2W⌉ jobs over W
// registered fleet workers, raised to the asking worker's slots and
// capped by MaxLease and by what is pending.
func TestLeaseGrantSlotsFloor(t *testing.T) {
	for _, tc := range []struct {
		trials, maxLease, workers, slots, want int
	}{
		{trials: 3, maxLease: 8, workers: 1, slots: 4, want: 4},  // floor over ⌈6/2⌉ = 3
		{trials: 3, maxLease: 8, workers: 1, slots: 0, want: 3},  // no slots counts as 1
		{trials: 3, maxLease: 3, workers: 1, slots: 4, want: 3},  // MaxLease caps the floor
		{trials: 1, maxLease: 8, workers: 1, slots: 4, want: 2},  // only 2 pending
		{trials: 4, maxLease: 8, workers: 3, slots: 4, want: 4},  // floor over ⌈8/6⌉ = 2
		{trials: 4, maxLease: 8, workers: 3, slots: -2, want: 2}, // a negative width counts as 1
		{trials: 8, maxLease: 8, workers: 1, slots: 1, want: 8},  // ⌈16/2⌉ = 8
	} {
		t.Run(fmt.Sprintf("trials%d-max%d-w%d-slots%d", tc.trials, tc.maxLease, tc.workers, tc.slots), func(t *testing.T) {
			var ids []string
			for i := range tc.workers {
				ids = append(ids, fmt.Sprintf("w%d", i))
			}
			c, _, _ := newLeaseCoordinator(t, fleetSpec("slots", tc.trials), tc.maxLease, ids...)
			g, err := c.Lease(LeaseRequest{Worker: "w0", Slots: tc.slots})
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Keys) != tc.want {
				t.Errorf("lease granted %d job(s), want %d", len(g.Keys), tc.want)
			}
		})
	}
}

// TestLeaseGrantForgetsSilentWorkers: a fleet worker that registered and
// then went silent for LeaseTTL, such as a restarted worker's old ID, no
// longer counts in W, so it stops shrinking later leases.
func TestLeaseGrantForgetsSilentWorkers(t *testing.T) {
	c, _, _ := newLeaseCoordinator(t, fleetSpec("silent", 4), 8, "w0", "gone")
	g, err := c.Lease(LeaseRequest{Worker: "w0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Keys) != 2 {
		t.Fatalf("lease with two live workers granted %d job(s), want ⌈8/4⌉ = 2", len(g.Keys))
	}
	c.mu.Lock()
	c.workers["gone"] = time.Now().Add(-c.cfg.LeaseTTL)
	c.mu.Unlock()
	if g, err = c.Lease(LeaseRequest{Worker: "w0"}); err != nil {
		t.Fatal(err)
	}
	if len(g.Keys) != 3 {
		t.Errorf("lease after one worker went silent granted %d job(s), want ⌈6/2⌉ = 3", len(g.Keys))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers["gone"]; ok || len(c.workers) != 1 {
		t.Errorf("workers = %v, want only w0", c.workers)
	}
}
