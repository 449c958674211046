package dist

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/metrics"
	"github.com/ares-cps/ares/internal/par"
)

// flights is a counting executor: it records every execution per job
// key and fails a key while fail still holds executions for it. Its ok
// records are deterministic in the job seed, like fleetExec's.
type flights struct {
	mu   sync.Mutex
	runs map[string]int
	fail map[string]int
}

func newFlights() *flights {
	return &flights{runs: make(map[string]int), fail: make(map[string]int)}
}

func (f *flights) exec(_ context.Context, job campaign.Job) (campaign.Metrics, error) {
	f.mu.Lock()
	f.runs[job.Key]++
	failing := f.fail[job.Key] > 0
	if failing {
		f.fail[job.Key]--
	}
	f.mu.Unlock()
	if failing {
		return campaign.Metrics{}, fmt.Errorf("synthetic fault in %s", job.Key)
	}
	return campaign.Metrics{
		Deviation: float64(job.Seed%1000) / 16,
		Return:    float64(job.Seed % 37),
		Success:   true,
	}, nil
}

// take returns the executions per key since the last take and resets them.
func (f *flights) take() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	runs := f.runs
	f.runs = make(map[string]int)
	return runs
}

// cellCoord is a coordinator over dir whose cells fly on exec: on two
// in-process workers, or with fleet on two fleet workers over HTTP.
func cellCoord(t *testing.T, dir string, exec campaign.Executor, fleet bool) (*Coordinator, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	c, err := NewCoordinator(CoordConfig{StoreDir: dir, LeaseTTL: 10 * time.Second, MaxLease: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var ts *httptest.Server
	if fleet {
		ts = httptest.NewServer(c.Handler())
	}
	for i := 0; i < 2; i++ {
		var w *Worker
		if fleet {
			w, err = NewWorker(WorkerConfig{Coordinator: ts.URL, ID: fmt.Sprintf("w%d", i), Jobs: 1, Execute: exec})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			w = c.InProcessWorker(fmt.Sprintf("local-%d", i), exec, par.NewBudget(2))
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Run(ctx) }()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		if ts != nil {
			ts.Close()
		}
		if err := c.Shutdown(); err != nil {
			t.Error(err)
		}
	})
	return c, reg
}

// runCampaign submits spec and waits until its campaign is done or failed.
func runCampaign(t *testing.T, c *Coordinator, spec campaign.Spec) JobStatus {
	t.Helper()
	st, code := c.Submit(spec)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit %s = %d", spec.Name, code)
	}
	deadline := time.Now().Add(20 * time.Second)
	for st.State != StateDone && st.State != StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %q", st.ID, st.State)
		}
		time.Sleep(time.Millisecond)
		st, _ = c.Status(st.ID)
	}
	return st
}

// campaignBytes returns campaign id's finalized <id>.sorted.jsonl and the
// canonical sorted bytes of its arrival-order <id>.jsonl.
func campaignBytes(t *testing.T, dir, id string) (sorted, store []byte) {
	t.Helper()
	sorted, err := os.ReadFile(SortedArtifactPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.ReadRecords(filepath.Join(dir, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if store, err = campaign.SortedBytes(recs); err != nil {
		t.Fatal(err)
	}
	return sorted, store
}

// checkFresh asserts campaign id in dir finished with the bytes a fresh
// coordinator writes for spec.
func checkFresh(t *testing.T, dir, id string, spec campaign.Spec) {
	t.Helper()
	freshDir := t.TempDir()
	c, _ := cellCoord(t, freshDir, newFlights().exec, false)
	if st := runCampaign(t, c, spec); st.State != StateDone || st.ID != id {
		t.Fatalf("fresh run = %+v, want done %s", st, id)
	}
	wantSorted, wantStore := campaignBytes(t, freshDir, id)
	sorted, store := campaignBytes(t, dir, id)
	if !bytes.Equal(sorted, wantSorted) {
		t.Errorf("%s.sorted.jsonl diverges from a fresh coordinator's:\n%s\nvs\n%s", id, sorted, wantSorted)
	}
	if !bytes.Equal(store, wantStore) {
		t.Errorf("%s.jsonl sorts to other bytes than a fresh coordinator's:\n%s\nvs\n%s", id, store, wantStore)
	}
}

func counter(reg *metrics.Registry, name string) uint64 { return reg.Counter(name, "").Value() }

// TestCellReuseSecondCampaignFliesNothing: a 1-trial campaign after a
// 3-trial one of the same cells executes nothing, on in-process and on
// fleet workers. Its cells fill from the first campaign's records at
// load, each with its progress line, and its artifacts equal a fresh
// coordinator's.
func TestCellReuseSecondCampaignFliesNothing(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		t.Run(map[bool]string{false: "in-process", true: "fleet"}[fleet], func(t *testing.T) {
			dir := t.TempDir()
			fl := newFlights()
			c, reg := cellCoord(t, dir, fl.exec, fleet)
			if st := runCampaign(t, c, fleetSpec("three", 3)); st.State != StateDone {
				t.Fatalf("3-trial campaign %s: %s", st.State, st.Error)
			}
			if runs := fl.take(); len(runs) != 6 {
				t.Fatalf("3-trial campaign flew %v, want its 6 cells", runs)
			}
			one := fleetSpec("one", 1)
			st := runCampaign(t, c, one)
			if st.State != StateDone {
				t.Fatalf("1-trial campaign %s: %s", st.State, st.Error)
			}
			if runs := fl.take(); len(runs) != 0 {
				t.Errorf("1-trial campaign flew %v, want nothing", runs)
			}
			if got := counter(reg, "ares_dist_cells_reused_total"); got != 2 {
				t.Errorf("cells reused = %d, want 2", got)
			}
			if got := counter(reg, "ares_dist_records_merged_total"); got != 6 {
				t.Errorf("records merged = %d, want 6 (worker records only)", got)
			}
			if want := 1 + 2; st.Events != want { // queued + one line per cell
				t.Errorf("events = %d, want %d", st.Events, want)
			}
			checkFresh(t, dir, st.ID, one)
		})
	}
}

// TestCellReuseMoreTrialsFliesOnlyNewTrials: raising trials on a
// finished campaign flies only the trials it did not have.
func TestCellReuseMoreTrialsFliesOnlyNewTrials(t *testing.T) {
	dir := t.TempDir()
	fl := newFlights()
	c, reg := cellCoord(t, dir, fl.exec, false)
	if st := runCampaign(t, c, fleetSpec("one", 1)); st.State != StateDone {
		t.Fatalf("1-trial campaign %s: %s", st.State, st.Error)
	}
	fl.take()
	three := fleetSpec("three", 3)
	st := runCampaign(t, c, three)
	if st.State != StateDone {
		t.Fatalf("3-trial campaign %s: %s", st.State, st.Error)
	}
	runs := fl.take()
	if len(runs) != 4 {
		t.Errorf("3-trial campaign flew %v, want its 4 new cells", runs)
	}
	for _, j := range three.Expand() {
		if j.Trial == 0 && runs[j.Key] > 0 {
			t.Errorf("cell %s flew again", j.Key)
		}
	}
	if got := counter(reg, "ares_dist_cells_reused_total"); got != 2 {
		t.Errorf("cells reused = %d, want 2", got)
	}
	checkFresh(t, dir, st.ID, three)
}

// TestCellReuseSkipsFailedCells: a failed cell is never indexed, so
// neither a retry of its campaign nor another campaign sharing it reuses
// its record; both fly it. Once it ends ok, it is reused like any other.
func TestCellReuseSkipsFailedCells(t *testing.T) {
	dir := t.TempDir()
	fl := newFlights()
	c, reg := cellCoord(t, dir, fl.exec, false)
	one, three := fleetSpec("one", 1), fleetSpec("three", 3)
	bad := one.Expand()[0].Key
	fl.fail[bad] = 2 // fails in the first run and in the retry

	for _, pass := range []string{"first run", "retry"} {
		if st := runCampaign(t, c, one); st.State != StateFailed {
			t.Fatalf("1-trial campaign %s: %s, want failed", pass, st.State)
		}
		if runs := fl.take(); runs[bad] != 1 {
			t.Errorf("%s flew %v, want the failed cell %s once", pass, runs, bad)
		}
	}
	if st := runCampaign(t, c, three); st.State != StateDone {
		t.Fatalf("3-trial campaign %s: %s", st.State, st.Error)
	}
	if runs := fl.take(); len(runs) != 5 || runs[bad] != 1 {
		t.Errorf("3-trial campaign flew %v, want the failed cell and the 4 new ones", runs)
	}
	if got := counter(reg, "ares_dist_cells_reused_total"); got != 1 {
		t.Errorf("cells reused = %d, want 1 (the ok t000 cell)", got)
	}
	st := runCampaign(t, c, one)
	if st.State != StateDone {
		t.Fatalf("1-trial campaign last retry %s: %s", st.State, st.Error)
	}
	if runs := fl.take(); len(runs) != 0 {
		t.Errorf("last retry flew %v, want nothing", runs)
	}
	checkFresh(t, dir, st.ID, one)
}

// TestCellReuseLostSourceFliesAgain: a source store that is deleted,
// cut short or altered after the merge fails the read-back check, so the
// cell flies again and the artifacts still equal a fresh coordinator's.
func TestCellReuseLostSourceFliesAgain(t *testing.T) {
	for _, tc := range []struct {
		name string
		harm func(path string) error
	}{
		{"deleted", os.Remove},
		{"truncated", func(path string) error { return os.Truncate(path, 10) }},
		{"value-changed", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			// Every line stays valid JSON with its key and seed: only
			// the line's checksum can tell.
			field := []byte(`"return":`)
			for i := bytes.Index(data, field); i >= 0; {
				i += len(field)
				if data[i] == '-' {
					i++
				}
				data[i] = '0' + (data[i]-'0'+1)%10
				next := bytes.Index(data[i:], field)
				if next < 0 {
					break
				}
				i += next
			}
			return os.WriteFile(path, data, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fl := newFlights()
			c, reg := cellCoord(t, dir, fl.exec, false)
			src := runCampaign(t, c, fleetSpec("three", 3))
			if src.State != StateDone {
				t.Fatalf("3-trial campaign %s: %s", src.State, src.Error)
			}
			fl.take()
			if err := tc.harm(filepath.Join(dir, src.ID+".jsonl")); err != nil {
				t.Fatal(err)
			}
			one := fleetSpec("one", 1)
			st := runCampaign(t, c, one)
			if st.State != StateDone {
				t.Fatalf("1-trial campaign %s: %s", st.State, st.Error)
			}
			if runs := fl.take(); len(runs) != 2 {
				t.Errorf("1-trial campaign flew %v, want both cells again", runs)
			}
			if got := counter(reg, "ares_dist_cells_reused_total"); got != 0 {
				t.Errorf("cells reused = %d, want 0", got)
			}
			checkFresh(t, dir, st.ID, one)
		})
	}
}

// TestCellReuseNotAcrossRestart: the index lives for one coordinator
// life. A restarted coordinator answers the finished campaign from its
// store but indexes none of those records, so a campaign sharing its
// cells flies them again.
func TestCellReuseNotAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	three := fleetSpec("three", 3)
	c1, err := NewCoordinator(CoordConfig{StoreDir: dir, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	w := c1.InProcessWorker("local-0", newFlights().exec, par.NewBudget(1))
	exited := make(chan struct{})
	go func() { defer close(exited); _ = w.Run(context.Background()) }()
	first := runCampaign(t, c1, three)
	if first.State != StateDone {
		t.Fatalf("life 1: %s: %s", first.State, first.Error)
	}
	if err := c1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	<-exited

	fl := newFlights()
	c2, reg := cellCoord(t, dir, fl.exec, false)
	if st, code := c2.Submit(three); code != http.StatusOK || st.ID != first.ID {
		t.Fatalf("life 2 resubmit = (%+v, %d), want 200 for %s", st, code, first.ID)
	}
	one := fleetSpec("one", 1)
	st := runCampaign(t, c2, one)
	if st.State != StateDone {
		t.Fatalf("life 2: %s: %s", st.State, st.Error)
	}
	if runs := fl.take(); len(runs) != 2 {
		t.Errorf("life 2 flew %v, want both cells", runs)
	}
	if got := counter(reg, "ares_dist_cells_reused_total"); got != 0 {
		t.Errorf("cells reused = %d, want 0", got)
	}
	checkFresh(t, dir, st.ID, one)
}
