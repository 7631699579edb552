package metrics

import (
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
)

// TestReplicasAtDeliverySealedOnce reproduces the protocols' event order —
// Delivered fires before the Replicated event of the delivering handoff —
// and checks the snapshot counts that replica exactly once, then freezes.
func TestReplicasAtDeliverySealedOnce(t *testing.T) {
	c := NewCollector()
	h := g2gcrypto.Hash([]byte("m"))
	const src, relay, dst, late = 0, 1, 2, 3
	t0 := sim.Time(0)
	tDeliver := sim.Time(100)

	c.Generated(h, 1, src, dst, t0)
	// One replica exists before delivery (src → relay).
	c.Replicated(h, src, relay, sim.Time(10))
	// The delivering contact: Delivered first, then the handoff's own
	// Replicated at the same instant.
	c.Delivered(h, tDeliver)
	c.Replicated(h, relay, dst, tDeliver)

	if got := c.msgs[h].replicasAtDelivery; got != 2 {
		t.Fatalf("replicasAtDelivery = %d, want 2 (pre-existing + delivering)", got)
	}

	// Later replication, a duplicate delivery, and even a same-instant
	// replay of the delivering handoff must not move the snapshot.
	c.Replicated(h, src, late, sim.Time(200))
	c.Delivered(h, sim.Time(250))
	c.Replicated(h, relay, dst, tDeliver)
	if got := c.msgs[h].replicasAtDelivery; got != 2 {
		t.Fatalf("snapshot moved after sealing: %d, want 2", got)
	}
	if at := c.msgs[h].deliveredAt; at != tDeliver {
		t.Fatalf("delivery time overwritten: %v, want %v", at, tDeliver)
	}

	s := c.Summarize()
	if s.MeanCostToDelivery != 2 {
		t.Fatalf("MeanCostToDelivery = %v, want 2", s.MeanCostToDelivery)
	}
	if s.TotalReplicas != 4 {
		t.Fatalf("TotalReplicas = %d, want 4", s.TotalReplicas)
	}
}

// TestReplicasAtDeliveryNonDestinationSameInstant: a same-instant replica to
// a node that is not the destination must not be folded into the snapshot.
func TestReplicasAtDeliveryNonDestinationSameInstant(t *testing.T) {
	c := NewCollector()
	h := g2gcrypto.Hash([]byte("n"))
	const src, other, dst = 0, 1, 2
	tDeliver := sim.Time(50)

	c.Generated(h, 1, src, dst, 0)
	c.Delivered(h, tDeliver)
	// Cascade at the same contact hands a copy to a bystander first…
	c.Replicated(h, src, other, tDeliver)
	if got := c.msgs[h].replicasAtDelivery; got != 0 {
		t.Fatalf("bystander replica folded in: %d, want 0", got)
	}
	// …then the destination's own handoff arrives and is counted.
	c.Replicated(h, src, dst, tDeliver)
	if got := c.msgs[h].replicasAtDelivery; got != 1 {
		t.Fatalf("replicasAtDelivery = %d, want 1", got)
	}
}
