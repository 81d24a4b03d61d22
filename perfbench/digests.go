package main

// pinnedDigests are the simulated-output digests (simCounters.digest)
// of each simulator workload at defaultSeed. A change meant only to
// speed up the simulator must leave them as they are; a run whose
// digest differs counts as failed.
var pinnedDigests = map[string]string{
	"morc-gcc":           "ecde2e2f8b8d64ec2e6049f707a120c27e2039899d77c41f26b8f986c4b341a0",
	"mix16-uncompressed": "d4184f51bbfab93c6374889c7331e74d72c9e95bd4aec442e5c66b481a4dd345",
}
