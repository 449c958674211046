package dataflash

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestCatalogueMatchesTableI(t *testing.T) {
	// The paper's Table I: 40 message types, 342 ALVs total.
	defs := Catalogue()
	if len(defs) != 40 {
		t.Errorf("catalogue has %d message types, want 40", len(defs))
	}
	if got := TotalALVs(); got != 342 {
		t.Errorf("total ALVs = %d, want 342", got)
	}
	// Spot-check the per-type counts against Table I.
	wantCounts := map[string]int{
		"AHR2": 7, "ATT": 12, "BARO": 5, "CMD": 6, "CTUN": 6, "CURR": 7,
		"DU32": 3, "EKF1": 14, "EKF2": 12, "EKF3": 11, "EKF4": 14, "EV": 2,
		"FMT": 6, "GPA": 5, "GPS": 14, "IMU": 12, "IMU2": 12, "MAG": 11,
		"MAG2": 11, "MAV": 2, "MODE": 3, "MOTB": 5, "MSG": 1, "NKF1": 14,
		"NKF2": 13, "NKF3": 12, "NKF4": 13, "NTUN": 11, "PARM": 3, "PIDA": 7,
		"PIDR": 7, "PIDY": 7, "PIDP": 7, "PM": 7, "POS": 5, "RATE": 13,
		"RCIN": 15, "RCOU": 13, "SIM": 7, "VIBE": 7,
	}
	for _, d := range defs {
		want, ok := wantCounts[d.Name]
		if !ok {
			t.Errorf("unexpected message type %s", d.Name)
			continue
		}
		if d.NumFields() != want {
			t.Errorf("%s has %d ALVs, want %d", d.Name, d.NumFields(), want)
		}
	}
	// Type bytes are unique and never collide with the FMT type.
	seen := make(map[byte]string)
	for _, d := range defs {
		if d.Type == fmtType {
			t.Errorf("%s uses the reserved FMT type byte", d.Name)
		}
		if prev, dup := seen[d.Type]; dup {
			t.Errorf("type byte %d shared by %s and %s", d.Type, prev, d.Name)
		}
		seen[d.Type] = d.Name
	}
}

func TestKSVL(t *testing.T) {
	names := ksvl()
	if len(names) != 342 {
		t.Errorf("KSVL has %d entries, want 342", len(names))
	}
	// Entries are MSG.Field and unique.
	seen := make(map[string]bool)
	for _, v := range names {
		if !strings.Contains(v, ".") {
			t.Errorf("malformed KSVL entry %q", v)
		}
		if seen[v] {
			t.Errorf("duplicate KSVL entry %q", v)
		}
		seen[v] = true
	}
	for _, want := range []string{"ATT.Roll", "IMU.GyrX", "PIDR.I", "EKF1.Roll", "NTUN.tv"} {
		if !seen[want] {
			t.Errorf("KSVL missing %s", want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	attVals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if err := w.Log("ATT", 0.5, attVals...); err != nil {
		t.Fatal(err)
	}
	if err := w.Log("BARO", 0.5, 10.5, 1013.2, 25, 0.1, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Log("ATT", 1.0, attVals...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(log.Records))
	}
	if log.Records[0].Name != "ATT" || log.Records[1].Name != "BARO" {
		t.Errorf("record order: %s, %s", log.Records[0].Name, log.Records[1].Name)
	}
	if got := log.Records[0].Time; math.Abs(got-0.5) > 1e-6 {
		t.Errorf("time = %v, want 0.5", got)
	}
	for i, v := range log.Records[0].Values {
		if math.Abs(v-attVals[i]) > 1e-5 {
			t.Errorf("value[%d] = %v, want %v", i, v, attVals[i])
		}
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Log("NOPE", 0, 1); err == nil {
		t.Error("unknown message accepted")
	}
	if err := w.Log("BARO", 0, 1, 2); err == nil {
		t.Error("wrong value count accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Log("BARO", 0, 1, 2, 3, 4, 5); err == nil {
		t.Error("write after Close accepted")
	}
}

func TestReadErrors(t *testing.T) {
	// Bad magic.
	if _, err := Read(bytes.NewReader([]byte{0x00, 0x00, 0x01})); err == nil {
		t.Error("bad magic accepted")
	}
	// Record before its FMT.
	if _, err := Read(bytes.NewReader([]byte{magic1, magic2, 0x05})); err == nil {
		t.Error("record before FMT accepted")
	}
	// Truncated mid-record.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Log("BARO", 0, 1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full[:len(full)-3])); err == nil {
		t.Error("truncated record accepted")
	}
	// Empty log is fine.
	log, err := Read(bytes.NewReader(nil))
	if err != nil || len(log.Records) != 0 {
		t.Errorf("empty log: %v, %d records", err, len(log.Records))
	}
}

func TestSeriesExtraction(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		vals := make([]float64, 12)
		vals[1] = float64(i) * 1.5 // Roll column
		if err := w.Log("ATT", float64(i)*0.0625, vals...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	times, values := log.Series("ATT.Roll")
	if len(times) != 10 || len(values) != 10 {
		t.Fatalf("series lengths %d/%d, want 10", len(times), len(values))
	}
	for i := range values {
		if math.Abs(values[i]-float64(i)*1.5) > 1e-5 {
			t.Errorf("values[%d] = %v", i, values[i])
		}
		if math.Abs(times[i]-float64(i)*0.0625) > 1e-6 {
			t.Errorf("times[%d] = %v", i, times[i])
		}
	}
	// Unknown and malformed variables.
	if _, v := log.Series("ATT.Nope"); v != nil {
		t.Error("unknown field returned data")
	}
	if _, v := log.Series("noDotHere"); v != nil {
		t.Error("malformed variable returned data")
	}
}

func TestVariablesListsOnlyLogged(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Log("BARO", 0, 1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	vars := log.Variables()
	if len(vars) != 5 {
		t.Errorf("variables = %v, want the 5 BARO fields", vars)
	}
	if vars[0] != "BARO.Alt" {
		t.Errorf("first variable = %s", vars[0])
	}
}

func TestDefsSorted(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Log("IMU", 0, make([]float64, 12)...)
	_ = w.Log("ATT", 0, make([]float64, 12)...)
	_ = w.Close()
	log, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defs := log.Defs()
	if len(defs) != 2 || defs[0].Name != "ATT" || defs[1].Name != "IMU" {
		t.Errorf("Defs = %v", defs)
	}
}

// ksvl returns the known state variable list: every "MSG.Field" name in the
// catalogue, in catalogue order. This is the starting variable inventory of
// the paper's Section IV-B.
func ksvl() []string {
	var names []string
	for _, d := range catalogue {
		for _, f := range d.Fields {
			names = append(names, fmt.Sprintf("%s.%s", d.Name, f))
		}
	}
	return names
}
