package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/ares-cps/ares"
	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/cpv"
)

// digests.json pins the SHA-256 of every output the benchmark can
// produce: sorted campaign artifacts (campaign.SortedBytes) and rendered
// pipeline reports. It is recorded from the scalar local path —
// campaign.NewExecutor on a local Runner — so the batched executor, the
// daemon and the fleet are each checked against the simplest path.
//
//go:embed digests.json
var pinnedDigests []byte

// digestTable maps an output name to its pinned hex digest.
type digestTable struct {
	byName map[string]string
}

func loadDigests() (*digestTable, error) {
	t := &digestTable{}
	if err := json.Unmarshal(pinnedDigests, &t.byName); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// check reports whether data hashes to the digest pinned under name. An
// output with no pinned digest fails: a missing pin is a benchmark bug.
func (t *digestTable) check(name string, data []byte) bool {
	want, ok := t.byName[name]
	return ok && want == digestOf(data)
}

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Output names.
func sweepDigestName(seed int64) string { return fmt.Sprintf("sweep/%d", seed) }
func fleetDigestName(seed int64) string { return fmt.Sprintf("fleet/%d", seed) }
func pipelineDigestName(seed int64) string {
	return fmt.Sprintf("pipeline/%d", seed)
}
func assessDigestName(b assessBody) string {
	return fmt.Sprintf("assess/%s/%d/t%d/e%d/s%d", b.Record, b.Seed, b.Trials, b.Episodes, b.MaxSteps)
}

// renderReport runs one pipeline the way cmd/ares does and returns the
// rendered report.
func renderReport(p *ares.Pipeline, tr *tracer) ([]byte, error) {
	end := tr.begin("core.profile", "")
	err := p.Profile()
	end(1)
	if err != nil {
		return nil, err
	}
	end = tr.begin("core.analyze", "")
	err = p.Analyze()
	end(1)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := p.Report().WriteText(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// localArtifact runs spec on the scalar local path and returns its
// sorted artifact.
func localArtifact(ctx context.Context, spec campaign.Spec, path string) ([]byte, error) {
	store, err := campaign.OpenStore(path)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	r := &campaign.Runner{Execute: campaign.NewExecutor()}
	stats, err := r.Run(ctx, spec, store)
	if err != nil {
		return nil, err
	}
	if n := stats.Errors + stats.Panics; n > 0 {
		return nil, fmt.Errorf("%d of %d jobs failed", n, stats.Total)
	}
	return campaign.SortedBytes(store.Records())
}

// recordDigests recomputes every pinned digest and writes the table.
func recordDigests(ctx context.Context, out string, log io.Writer) error {
	dir := filepath.Join(workDir, "record")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	table := make(map[string]string)
	n := 0
	artifact := func(name string, spec campaign.Spec) error {
		n++
		data, err := localArtifact(ctx, spec, filepath.Join(dir, fmt.Sprintf("%04d.jsonl", n)))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		table[name] = digestOf(data)
		fmt.Fprintf(log, "%s %s\n", table[name][:12], name)
		return nil
	}
	for _, s := range sweepSeeds {
		if err := artifact(sweepDigestName(s), sweepSpec(s)); err != nil {
			return err
		}
	}
	for _, s := range fleetSeeds {
		spec, err := fleetSpec(s)
		if err != nil {
			return err
		}
		if err := artifact(fleetDigestName(s), spec); err != nil {
			return err
		}
	}
	for _, s := range daemonSeeds {
		for _, id := range cpv.IDs() {
			for t := 1; t <= daemonTrials; t++ {
				b := assessBody{Record: id, Seed: s, Trials: t, Episodes: daemonEpisodes, MaxSteps: daemonMaxSteps}
				spec, err := b.spec()
				if err != nil {
					return err
				}
				if err := artifact(assessDigestName(b), spec); err != nil {
					return err
				}
			}
		}
	}
	for _, s := range pipelineSeeds {
		rep, err := renderReport(ares.NewPipeline(ares.Config{Seed: s}), nil)
		if err != nil {
			return fmt.Errorf("pipeline %d: %w", s, err)
		}
		table[pipelineDigestName(s)] = digestOf(rep)
		fmt.Fprintf(log, "%s %s\n", table[pipelineDigestName(s)][:12], pipelineDigestName(s))
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
