package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Metrics are the measured outcomes of one completed job. Records carry no
// wall-clock fields on purpose: artifact bytes depend only on the spec, so
// runs at different worker counts (or resumed runs) produce identical
// sorted records.
type Metrics struct {
	// Deviation is the peak path deviation (deviation goal) or the final
	// distance to the forbidden zone (crash goal), in meters.
	Deviation float64 `json:"deviation"`
	// Return is the greedy evaluation episode return.
	Return float64 `json:"return"`
	// BestReturn is the best training-episode return.
	BestReturn float64 `json:"best_return"`
	// Detected reports an in-loop detector alarm during evaluation.
	Detected bool `json:"detected"`
	// Crashed reports vehicle loss during evaluation.
	Crashed bool `json:"crashed"`
	// GoalReached reports forbidden-zone contact (crash goal only).
	GoalReached bool `json:"goal_reached"`
	// Recovered reports that the recovery guard engaged during evaluation
	// (recovery defense only).
	Recovered bool `json:"recovered,omitempty"`
	// Success applies the campaign's success criterion: an undetected
	// deviation beyond the threshold, or undetected zone contact.
	Success bool `json:"success"`
}

// Record is one JSON line of the artifact store. Attack and CPV are
// omitempty so stores written before those axes existed round-trip
// unchanged; an empty Attack on a loaded record means the implicit "rl".
type Record struct {
	Key      string   `json:"key"`
	Mission  string   `json:"mission"`
	Variable string   `json:"variable"`
	Goal     string   `json:"goal"`
	Attack   string   `json:"attack,omitempty"`
	Defense  string   `json:"defense"`
	Trial    int      `json:"trial"`
	CPV      string   `json:"cpv,omitempty"`
	Seed     int64    `json:"seed"`
	Status   string   `json:"status"` // "ok", "error" or "panic"
	Error    string   `json:"error,omitempty"`
	Metrics  *Metrics `json:"metrics,omitempty"`
}

// Statuses a Record can carry.
const (
	StatusOK    = "ok"
	statusError = "error"
	statusPanic = "panic"
)

// Store is the append-only JSON-lines artifact log. Opening an existing
// file loads its records, so a re-run resumes where the previous one
// stopped; every Append is flushed to the OS before returning, so a killed
// run loses at most its in-flight jobs.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	size int64 // file length: where the next line starts
	done map[string]bool
	recs []Record
}

// OpenStore opens (or creates) the artifact file at path and indexes the
// completed job keys found in it. Records with a non-ok status do not
// count as completed, so failed jobs retry on resume. A corrupt or
// truncated trailing line — the signature of a run killed mid-Append — is
// dropped (the file is truncated back to the last intact record) so the
// campaign resumes from the intact prefix instead of erroring out.
func OpenStore(path string) (*Store, error) {
	recs, valid, needNL, err := readRecordsPrefix(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Store, error) {
		_ = f.Close() // best-effort: the open/repair error is the one to surface
		return nil, err
	}
	if info, err := f.Stat(); err != nil {
		return fail(err)
	} else if info.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			return fail(err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fail(err)
	}
	// A valid final record without a newline (crash between Write and the
	// next Append) must not have the next record glued onto its line.
	if needNL {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return fail(err)
		}
		valid++
	}
	s := &Store{f: f, size: valid, done: make(map[string]bool), recs: recs}
	for _, r := range recs {
		if r.Status == StatusOK {
			s.done[r.Key] = true
		}
	}
	return s, nil
}

// Completed reports whether a job key already has an ok record.
func (s *Store) Completed(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[key]
}

// Records returns a copy of every record seen so far (loaded + appended).
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// Append writes one record as a JSON line. The line is handed to the OS
// but not fsynced, so it survives a killed process but not a host crash.
func (s *Store) Append(r Record) error {
	_, _, err := s.AppendAt(r)
	return err
}

// AppendAt is Append that also reports where the record's line starts in
// the file and the line itself, newline included, so a reader can find
// and check it again without loading the whole store.
func (s *Store) AppendAt(r Record) (off int64, line []byte, err error) {
	line, err = json.Marshal(r)
	if err != nil {
		return 0, nil, err
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	off = s.size
	n, err := s.f.Write(line)
	s.size += int64(n)
	if err != nil {
		return 0, nil, err
	}
	s.recs = append(s.recs, r)
	if r.Status == StatusOK {
		s.done[r.Key] = true
	}
	return off, line, nil
}

// Close closes the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// SortedBytes renders records as the canonical sorted JSONL artifact:
// deduplicated by job key keeping the last occurrence (mirroring
// Aggregate, so a resumed store where a failed job later succeeded keeps
// the success), sorted by key, one compact JSON line per record. Because
// record bytes depend only on the spec — never on worker identity or
// completion order — a local run, a resumed run and a distributed merge
// of the same spec all produce byte-identical SortedBytes. internal/dist
// tests cross-node bit-identity against exactly this encoding.
func SortedBytes(recs []Record) ([]byte, error) {
	byKey := make(map[string]Record, len(recs))
	keys := make([]string, 0, len(recs))
	for _, r := range recs {
		if _, seen := byKey[r.Key]; !seen {
			keys = append(keys, r.Key)
		}
		byKey[r.Key] = r
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		line, err := json.Marshal(byKey[k])
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// WriteFileAtomic finalizes a summary or artifact file via write-temp +
// rename: readers either see the previous complete file or the new
// complete file, never a torn prefix — the finalization-side counterpart
// of the torn-trailing-JSONL handling in OpenStore. The temp file lives in
// path's directory so the rename cannot cross filesystems.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // best-effort: the write error is the one to surface
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // best-effort: the sync error is the one to surface
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), perm); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadRecords loads every record from a JSON-lines artifact file. A corrupt
// or truncated trailing line — what a run killed mid-Append leaves behind —
// is dropped and the intact prefix returned; a corrupt line anywhere else is
// still an error, because records after it would be ambiguous.
func ReadRecords(path string) ([]Record, error) {
	recs, _, _, err := readRecordsPrefix(path)
	return recs, err
}

// readRecordsPrefix parses the artifact file and additionally reports the
// byte length of the intact record prefix (so OpenStore can truncate a
// crash-damaged tail before appending) and whether the last intact record
// is missing its terminating newline.
func readRecordsPrefix(path string) (recs []Record, valid int64, needNL bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	off := 0
	for ln := 1; off < len(data); ln++ {
		next := len(data)
		terminated := false
		if end := bytes.IndexByte(data[off:], '\n'); end >= 0 {
			next = off + end + 1
			terminated = true
		}
		line := bytes.TrimSpace(data[off:next])
		if len(line) == 0 {
			off = next
			valid = int64(next)
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			if len(bytes.TrimSpace(data[next:])) == 0 {
				// Damaged tail: keep the intact prefix ending at valid.
				return recs, valid, needNL, nil
			}
			return nil, 0, false, fmt.Errorf("campaign: %s:%d: %w", path, ln, err)
		}
		recs = append(recs, r)
		off = next
		valid = int64(next)
		needNL = !terminated
	}
	return recs, valid, needNL, nil
}
