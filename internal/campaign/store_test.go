package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeStore creates a store at path and appends recs to it.
func writeStore(t *testing.T, path string, recs ...Record) {
	t.Helper()
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func okRecord(key string) Record {
	return Record{Key: key, Mission: "square", Variable: "V", Status: StatusOK,
		Metrics: &Metrics{Deviation: 1.5}}
}

// TestStoreResumeCorruptTail simulates a campaign killed mid-Append: the
// artifact file ends with a truncated JSON line. Resume must recover every
// intact record, truncate the damage, and keep appending cleanly.
func TestStoreResumeCorruptTail(t *testing.T) {
	for _, tail := range []string{
		`{"key":"c","mission":"sq`,         // truncated mid-record, no newline
		`{"key":"c","mission":"sq}` + "\n", // corrupt but newline-terminated
		"\x00\x00\x00",                     // raw garbage
	} {
		t.Run(strings.ReplaceAll(tail, "\n", "\\n"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "runs.jsonl")
			writeStore(t, path, okRecord("a"), okRecord("b"))

			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// ReadRecords tolerates the damaged tail.
			recs, err := ReadRecords(path)
			if err != nil {
				t.Fatalf("ReadRecords: %v", err)
			}
			if len(recs) != 2 || recs[0].Key != "a" || recs[1].Key != "b" {
				t.Fatalf("recovered %+v, want records a,b", recs)
			}

			// Reopening resumes with the intact prefix and appends cleanly
			// past the truncated damage.
			s, err := OpenStore(path)
			if err != nil {
				t.Fatalf("OpenStore after corruption: %v", err)
			}
			if got := len(s.done); got != 2 {
				t.Fatalf("completed keys = %d, want 2", got)
			}
			if !s.Completed("a") || !s.Completed("b") || s.Completed("c") {
				t.Fatal("completed-key index wrong after recovery")
			}
			if err := s.Append(okRecord("c")); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			recs, err = ReadRecords(path)
			if err != nil {
				t.Fatalf("ReadRecords after resume: %v", err)
			}
			if len(recs) != 3 || recs[2].Key != "c" {
				t.Fatalf("after resume got %+v, want a,b,c", recs)
			}
		})
	}
}

// TestStoreResumeMissingFinalNewline covers a crash between the final
// record's bytes landing and its newline: the record is intact JSON but
// unterminated. It must be kept, and the next append must not glue onto it.
func TestStoreResumeMissingFinalNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	writeStore(t, path, okRecord("a"), okRecord("b"))

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("fixture should end with newline")
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.done); got != 2 {
		t.Fatalf("completed keys = %d, want 2", got)
	}
	if err := s.Append(okRecord("c")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Key != "c" {
		t.Fatalf("got %+v, want a,b,c", recs)
	}
}

// TestStoreAppendAtLocatesLines: every offset AppendAt reports points at
// the line it returned, on a new store and on reopened ones, including
// one whose last line lost its newline (which OpenStore restores) and one
// with a damaged tail (which OpenStore truncates).
func TestStoreAppendAtLocatesLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	type span struct {
		off  int64
		line []byte
	}
	var spans []span
	appendAt := func(keys ...string) {
		t.Helper()
		s, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			off, line, err := s.AppendAt(okRecord(k))
			if err != nil {
				t.Fatal(err)
			}
			spans = append(spans, span{off, line})
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	edit := func(f func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	appendAt("a", "b")
	edit(func(d []byte) []byte { return d[:len(d)-1] }) // drop the final newline
	appendAt("c")
	edit(func(d []byte) []byte { return append(d, `{"key":"torn`...) })
	appendAt("d")

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range spans {
		end := sp.off + int64(len(sp.line))
		if end > int64(len(data)) || string(data[sp.off:end]) != string(sp.line) {
			t.Errorf("line %d: offset %d does not locate %q in\n%s", i, sp.off, sp.line, data)
		}
	}
}

// TestReadRecordsCorruptMiddleStillErrors pins that recovery applies only to
// the tail: a corrupt line with intact records after it is ambiguous and
// must fail loudly rather than silently dropping data.
func TestReadRecordsCorruptMiddleStillErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	writeStore(t, path, okRecord("a"), okRecord("b"))

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	mangled := `{"key":"broken` + "\n" + lines[0] + lines[1]
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadRecords(path); err == nil {
		t.Fatal("corrupt middle line accepted")
	}
	if _, err := OpenStore(path); err == nil {
		t.Fatal("OpenStore accepted corrupt middle line")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "summary.csv")
	if err := WriteFileAtomic(path, []byte("first\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second\n" {
		t.Errorf("content = %q, want %q", got, "second\n")
	}
	// No temp files may survive a successful finalization.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("leftover files after atomic write: %v", names)
	}
}
