package protocol

import (
	"bytes"
	"slices"

	"give2get/internal/g2gcrypto"
)

// sortedDigestsInto collects the map's keys in a stable (byte-wise) order
// into buf's backing array, growing it as needed, and stores the grown
// capacity back through buf for the next call. Protocol loops iterate
// buffers through this helper so that whole simulation runs are reproducible
// from a single seed: Go map iteration order would otherwise leak
// nondeterminism into RNG consumption.
//
// The returned slice aliases *buf and is only valid until the owner's next
// call, which is safe under the session discipline: a node never re-enters
// its own buffer iteration while one is in progress (nested calls during a
// session run on the peer's base, which owns its own scratch).
func sortedDigestsInto[T any](buf *[]g2gcrypto.Digest, m map[g2gcrypto.Digest]T) []g2gcrypto.Digest {
	keys := (*buf)[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b g2gcrypto.Digest) int {
		return bytes.Compare(a[:], b[:])
	})
	*buf = keys
	return keys
}

// The session-hot buffer maps (pending tests, epidemic buffers) keep a
// companion key slice in the same byte-wise order sortedDigestsInto would
// produce, maintained incrementally at the handful of insert/delete sites
// instead of re-sorted on every contact; G2G custody keeps only its
// relayable copies in that order (orderedInsertCopy). The slice is derived
// state: it is never serialized, and checkpoint restore rebuilds it from the
// map with sortedDigestsInto, so the two representations cannot drift across
// a resume.

// orderedInsert adds h to the sorted key slice, keeping it sorted. Inserting
// a digest that is already present is a no-op, matching map-key semantics.
func orderedInsert(keys *[]g2gcrypto.Digest, h g2gcrypto.Digest) {
	i, found := slices.BinarySearchFunc(*keys, h, func(a, b g2gcrypto.Digest) int {
		return bytes.Compare(a[:], b[:])
	})
	if found {
		return
	}
	*keys = slices.Insert(*keys, i, h)
}

// orderedRemove deletes h from the sorted key slice if present.
func orderedRemove(keys *[]g2gcrypto.Digest, h g2gcrypto.Digest) {
	i, found := slices.BinarySearchFunc(*keys, h, func(a, b g2gcrypto.Digest) int {
		return bytes.Compare(a[:], b[:])
	})
	if !found {
		return
	}
	*keys = slices.Delete(*keys, i, i+1)
}

// orderedInsertCopy files c in a list of copies kept in the same byte-wise
// hash order as orderedInsert's keys.
func orderedInsertCopy(list *[]*g2gCustody, c *g2gCustody) {
	i, _ := slices.BinarySearchFunc(*list, &c.hash, func(e *g2gCustody, h *g2gcrypto.Digest) int {
		return bytes.Compare(e.hash[:], h[:])
	})
	*list = slices.Insert(*list, i, c)
}
