package dist

import (
	"hash/fnv"
	"io"
)

// shardOf maps one job of one campaign onto a shard in [0, n). The shard
// key derives from the campaign's content-addressed identity — the
// campaign.SpecHash hex that names the campaign — concatenated with the job
// key and hashed with FNV-1a (the same hash family job seeds stream
// from), so a job's preferred owner is a pure function of spec identity
// and fleet size: every coordinator life, and every worker doing the
// same arithmetic, computes the same placement.
func shardOf(campaignID, key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, campaignID)
	_, _ = h.Write([]byte{0})
	_, _ = io.WriteString(h, key)
	return int(h.Sum64() % uint64(n))
}
