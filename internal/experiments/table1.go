package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/dataflash"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/sensors"
)

// Table1Result reproduces Table I: the dataflash logger's message catalogue
// as the known state variable list, cross-checked against a live flight log.
type Table1Result struct {
	// Entries lists (message name, ALV count) in catalogue order.
	Entries []Table1Entry
	// TotalALVs is the catalogue total (342 in the paper).
	TotalALVs int
	// LiveMessages is the number of message types a real simulated flight
	// actually produced, verifying the logger end to end.
	LiveMessages int
	// LiveRecords is the record count of the verification flight.
	LiveRecords int
}

// Table1Entry is one Table I cell.
type Table1Entry struct {
	Name string
	ALVs int
}

// Name implements Result.
func (*Table1Result) Name() string { return "table1" }

// RunTable1 builds the Table I inventory and verifies it against a live
// 20-second logged flight.
func RunTable1(s *Suite) (*Table1Result, error) {
	res := &Table1Result{TotalALVs: dataflash.TotalALVs()}
	for _, def := range dataflash.Catalogue() {
		res.Entries = append(res.Entries, Table1Entry{Name: def.Name, ALVs: def.NumFields()})
	}

	// Live verification: fly for 20 s with the dataflash writer attached
	// and parse the log back.
	var buf bytes.Buffer
	w := dataflash.NewWriter(&buf)
	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(s.Seed), LogWriter: w})
	if err != nil {
		return nil, err
	}
	if err := fw.Takeoff(10); err != nil {
		return nil, err
	}
	fw.RunFor(20)
	if err := w.Close(); err != nil {
		return nil, err
	}
	log, err := dataflash.Read(&buf)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, rec := range log.Records {
		seen[rec.Name] = true
	}
	res.LiveMessages = len(seen)
	res.LiveRecords = len(log.Records)
	return res, nil
}

// WriteText implements Result.
func (r *Table1Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Table I — KSVL from the dataflash logger (%d message types, %d ALVs)\n",
		len(r.Entries), r.TotalALVs); err != nil {
		return err
	}
	// Six columns, like the paper's layout.
	const cols = 6
	for i := 0; i < len(r.Entries); i += cols {
		for j := i; j < i+cols && j < len(r.Entries); j++ {
			e := r.Entries[j]
			if _, err := fmt.Fprintf(w, "%-5s %3d   ", e.Name, e.ALVs); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"live check: %d message types, %d records in a 20 s logged flight\n",
		r.LiveMessages, r.LiveRecords)
	return err
}

// WriteCSV implements Result.
func (r *Table1Result) WriteCSV(dir string) error {
	rows := make([][]string, 0, len(r.Entries))
	for _, e := range r.Entries {
		rows = append(rows, []string{e.Name, strconv.Itoa(e.ALVs)})
	}
	return campaign.WriteCSV(dir, "table1_ksvl.csv", []string{"message", "alvs"}, rows)
}
