package campaign

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
)

// WriteCSV writes one CSV file with a header row into dir, creating the
// directory if needed; the campaign summary and every experiment exporter
// write through it. The file is finalized atomically (write temp +
// rename), so a crash mid-export leaves either the previous file or the
// new one — never a torn file beside an intact artifact log.
func WriteCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return WriteFileAtomic(filepath.Join(dir, name), buf.Bytes(), 0o644)
}
