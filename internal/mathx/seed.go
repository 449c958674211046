package mathx

// splitMix64 advances the splitmix64 generator one step from state x and
// returns the mixed output. It is the finalizer Vigna recommends for
// seeding other generators: a bijective avalanche mix, so distinct inputs
// always produce distinct outputs.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed derives an independent seed for the given stream from a base
// seed. Adjacent base seeds (1, 2, 3, …) and adjacent streams map to
// unrelated outputs, unlike ad-hoc `base + offset` schemes where stream k
// of seed s collides with stream k-1 of seed s+1. Both arguments are mixed
// through splitMix64, so DeriveSeed(b, s1) == DeriveSeed(b', s2) requires a
// full 64-bit collision between distinct (base, stream) pairs.
func DeriveSeed(base, stream int64) int64 {
	h := splitMix64(uint64(base))
	h = splitMix64(h ^ splitMix64(uint64(stream)+0x6a09e667f3bcc909))
	return int64(h)
}
