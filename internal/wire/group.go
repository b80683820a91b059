package wire

// GroupID names one consensus group in a sharded deployment. Group 0 is
// the default group: a packed (group 0, instance) id is numerically equal
// to the bare instance id, so unsharded deployments and pre-shard peers
// produce byte-identical frames.
type GroupID uint16

// InstanceMask covers the group-local instance bits of a packed id.
// Instance ids occupy the low 48 bits; the group rides in the top 16.
// At one decided instance per microsecond a group would take ~8.9 years
// to exhaust 48 bits, so the split costs nothing in practice.
const InstanceMask = uint64(1)<<48 - 1

// PackGID packs a (group, group-local instance) pair into the single u64
// instance field every envelope, decision ring, and WAL record already
// carries. Sharding therefore needs no new wire format: frames for group
// g simply live in a disjoint instance-id range.
func PackGID(g GroupID, instance uint64) uint64 {
	return uint64(g)<<48 | (instance & InstanceMask)
}

// SplitGID recovers the group and group-local instance from a packed id.
func SplitGID(packed uint64) (GroupID, uint64) {
	return GroupID(packed >> 48), packed & InstanceMask
}

// GroupForKey maps a key to its owning group: FNV-1a over the key bytes,
// reduced mod shards. The hash is fixed by the algorithm (no per-process
// seed), so the mapping is identical across replicas, across restarts,
// and across client binaries — a client routes with this same function
// and never needs to ask the server where a key lives. The key may be a
// string or a byte slice (a server routing a line it has not copied).
func GroupForKey[K ~string | ~[]byte](key K, shards int) GroupID {
	if shards <= 1 {
		return 0
	}
	// FNV-1a, 64-bit (hash/fnv's New64a, unrolled so nothing allocates).
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return GroupID(h % uint64(shards))
}
