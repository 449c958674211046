package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"github.com/ares-cps/ares/internal/campaign"
)

// cellKey is the content address of one campaign cell: the SHA-256 of
// the JSON encoding of its whole campaign.Job. A record is a pure
// function of its Job, so two campaigns whose expansions share a Job
// share that cell's record. Marshalling the struct, not a hand-picked
// field list, puts any field Job gains later into the key unedited.
type cellKey [sha256.Size]byte

// cellKeyOf returns j's content address.
func cellKeyOf(j campaign.Job) cellKey {
	b, err := json.Marshal(j)
	if err != nil {
		// Every field derives from a spec that campaign.SpecHash or the
		// queue manifest already encoded, so the Job encodes too.
		panic(fmt.Sprintf("dist: marshal job %s: %v", j.Key, err))
	}
	return sha256.Sum256(b)
}

// cellLoc locates an indexed cell's ok record: the line of n bytes
// (newline included) at off in campaign's store, and that line's CRC-32.
// The index holds locations, not records, so an entry costs about a
// hundred bytes however large the record is.
type cellLoc struct {
	campaign string
	off      int64
	n        int
	crc      uint32
}

// readCell reads back the record at loc and checks it is the ok record
// of job: the bytes must be whole and unchanged since the merge that
// indexed them, and the decoded record must carry job's key and seed.
func readCell(path string, loc cellLoc, job campaign.Job) (campaign.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return campaign.Record{}, err
	}
	defer f.Close() // read-only
	line := make([]byte, loc.n)
	if _, err := f.ReadAt(line, loc.off); err != nil {
		return campaign.Record{}, fmt.Errorf("read %d bytes at %d: %w", loc.n, loc.off, err)
	}
	if crc32.ChecksumIEEE(line) != loc.crc {
		return campaign.Record{}, fmt.Errorf("line at %d changed since it was merged", loc.off)
	}
	var rec campaign.Record
	if err := json.Unmarshal(bytes.TrimSuffix(line, []byte{'\n'}), &rec); err != nil {
		return campaign.Record{}, fmt.Errorf("decode line at %d: %w", loc.off, err)
	}
	if rec.Key != job.Key || rec.Seed != job.Seed || rec.Status != campaign.StatusOK {
		return campaign.Record{}, fmt.Errorf("line at %d holds %s (seed %d, %s), want ok %s (seed %d)",
			loc.off, rec.Key, rec.Seed, rec.Status, job.Key, job.Seed)
	}
	return rec, nil
}
