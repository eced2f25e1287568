package feasible

// DecidedShares lets the external test package's benchmarks count what the
// safe radii decide; it exists only in test builds.
var DecidedShares = decidedShares
