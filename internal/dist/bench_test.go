package dist

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/metrics"
)

// BenchmarkDistMerge measures the coordinator's merge path end to end —
// submit, lease, record ingestion, slot fill, finalize (sorted artifact +
// summary) — for a 64-job campaign delivered by 1, 2 and 8 simulated
// workers. Worker count changes lease interleaving, not record bytes; the
// benchmark tracks what fan-in costs the coordinator.
func BenchmarkDistMerge(b *testing.B) {
	spec := fleetSpec("bench-merge", 32)
	_, _, recs := localRun(b, spec)
	recFor := make(map[string]campaign.Record, len(recs))
	for _, r := range recs {
		recFor[r.Key] = r
	}
	id := campaign.SpecHash(spec)

	for _, nw := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			root := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dir := filepath.Join(root, fmt.Sprintf("i%d", i))
				c, err := NewCoordinator(CoordConfig{
					StoreDir: dir, LeaseTTL: time.Hour, MaxLease: 8,
					Metrics: metrics.NewRegistry(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, code := c.Submit(spec); code != 202 {
					b.Fatalf("submit = %d", code)
				}
				for w := 0; ; w++ {
					worker := fmt.Sprintf("w%d", w%nw)
					g, err := c.Lease(LeaseRequest{Worker: worker})
					if err != nil {
						b.Fatal(err)
					}
					if g.Lease == "" {
						break
					}
					batch := make([]campaign.Record, 0, len(g.Keys))
					for _, k := range g.Keys {
						batch = append(batch, recFor[k])
					}
					if _, _, err := c.MergeRecords(RecordsRequest{
						Worker: worker, Lease: g.Lease, Offset: 0, Records: batch,
					}); err != nil {
						b.Fatal(err)
					}
					c.Complete(CompleteRequest{Worker: worker, Lease: g.Lease})
				}
				if st, ok := c.Status(id); !ok ||
					(st.State != StateDone && st.State != StateFailed) {
					b.Fatalf("campaign not terminal: %+v", st)
				}
				if err := c.Shutdown(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
