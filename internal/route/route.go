// Package route assigns leading-dimension components to shard owners.
//
// The assignment is the serving-layer face of the paper's Sec. 6.3
// partitioning argument: tuples sharded on one dimension cube independently,
// and any cell fixing that dimension aggregates tuples of exactly one
// partition. Hashing a component string to an owner therefore routes point
// lookups, slices and deltas that bind the routing dimension to the single
// shard holding every matching tuple.
//
// Both the router (picking the shard to forward to) and a shard worker
// (filtering its slice of the source relation) must agree on the mapping, so
// it lives here, depends on nothing, and must never change for a deployed
// topology: rehashing moves tuples between shards.
package route

// offset32 and prime32 are the FNV-1a 32-bit parameters.
const (
	offset32 = 2166136261
	prime32  = 16777619
)

// Owner maps a routing-dimension component to its owning shard in [0, n).
// The component is the dimension's string form: the label on labeled cubes,
// the decimal value on coded cubes. n must be positive.
//
// The hash is FNV-1a inlined to keep the routing fast path allocation-free
// (hash/fnv forces the component through an io.Writer's []byte).
func Owner(component string, n int) int {
	h := uint32(offset32)
	for i := 0; i < len(component); i++ {
		h ^= uint32(component[i])
		h *= prime32
	}
	return int(h % uint32(n))
}
