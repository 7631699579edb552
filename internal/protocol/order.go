package protocol

import (
	"bytes"
	"slices"

	"give2get/internal/g2gcrypto"
)

// The session-hot buffer maps (pending tests, epidemic buffers) keep a
// companion key slice in byte-wise order, maintained incrementally at the
// handful of insert/delete sites instead of re-sorted on every contact; G2G
// custody keeps only its relayable copies in that order
// (orderedInsertCopy). Protocol loops iterate these slices, never the maps,
// so that whole simulation runs are reproducible from a single seed: Go map
// iteration order would otherwise leak nondeterminism into RNG consumption.

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
