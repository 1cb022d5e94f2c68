package main

// recordedDigests holds, per workload, the SHA-256 of the JSON-encoded
// cold-pass results (in spec order) as the simulator produced them when
// the benchmark was defined. Both workloads simulate the same specs under
// every seed. A change that only makes the simulator faster must leave
// them unchanged.
var recordedDigests = map[string]string{
	"table3":       "69e496b05280d2306190e1a195b5f8da99eee33c211f2268587f7a7606922610",
	"service-zipf": "5768a77bae0aa94e77c4088ad106904c6e1a7e2e36df6f7d6dba69e433313c05",
}
