package experiments

import (
	"fmt"

	"give2get/internal/metrics"
	"give2get/internal/protocol"
	"give2get/internal/trace"
)

// Memory reproduces the memory claim of Section VIII: the G2G machinery
// (PoRs, seen-sets, payloads retained until two proofs are collected) keeps
// per-node memory within a constant factor of the vanilla protocols. The
// table reports the mean per-node buffer occupancy integral.
func Memory(opts Options) ([]*metrics.Table, error) {
	kinds := []protocol.Kind{
		protocol.Epidemic, protocol.G2GEpidemic,
		protocol.DelegationLastContact, protocol.G2GDelegationLastContact,
	}
	b := opts.newBatch()
	var out []*metrics.Table
	for _, scenario := range opts.scenarios() {
		tbl := metrics.NewTable(
			fmt.Sprintf("Sec. VIII (%s): per-node memory overhead", scenario.Name),
			"protocol", "mean memory (KB·s per node)", "vs vanilla")
		// The vs-vanilla factor chains row to row, which the in-order firing
		// of the deferred callbacks preserves.
		vanilla := new(float64)
		for _, kind := range kinds {
			delta1 := scenario.EpidemicTTL
			if kind.IsDelegation() {
				delta1 = scenario.DelegationTTL
			}
			c, err := b.single(runSpec{scenario: scenario, kind: kind, delta1: delta1})
			if err != nil {
				return nil, err
			}
			b.then(func() {
				res := c.result()
				var total float64
				for _, u := range res.Usage {
					total += u.MemoryByteSeconds
				}
				perNode := total / float64(len(res.Usage)) / 1024
				factor := "1.00x"
				if kind.IsG2G() && *vanilla > 0 {
					factor = fmt.Sprintf("%.2fx", perNode/(*vanilla))
				} else {
					*vanilla = perNode
				}
				tbl.AddRow(kind.String(), perNode, factor)
				opts.logf("memory %s %s %.0f KB·s/node", scenario.Name, kind, perNode)
			})
		}
		out = append(out, tbl)
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	return out, nil
}

// Payoff makes the Nash-equilibrium argument of Section IV-C empirical: a
// node's payoff is positive, decreasing in energy and memory spent, and
// collapses if the node loses service. The experiment compares, under G2G
// Epidemic, the average honest node against the average dropper: droppers
// save relay energy but get evicted, so their own messages stop being
// delivered and their payoff is strictly worse — deviating does not pay.
func Payoff(opts Options) ([]*metrics.Table, error) {
	scenario := opts.infocom()
	tr, err := scenario.Trace()
	if err != nil {
		return nil, err
	}
	model := protocol.DefaultEnergyModel()
	tbl := metrics.NewTable(
		"Sec. IV-C (empirical): per-node payoff of honesty vs dropping (G2G Epidemic, Infocom05)",
		"strategy", "own delivery %", "energy (units)", "memory (KB·s)", "evicted %", "payoff")
	deviants := opts.pickDeviants(tr.Nodes(), tr.Nodes()/4, "payoff")
	res, err := opts.run(runSpec{
		scenario:  scenario,
		kind:      protocol.G2GEpidemic,
		delta1:    scenario.EpidemicTTL,
		deviants:  deviants,
		deviation: protocol.Dropper,
	})
	if err != nil {
		return nil, err
	}
	isDeviant := make(map[trace.NodeID]struct{}, len(deviants))
	for _, d := range deviants {
		isDeviant[d] = struct{}{}
	}
	evicted := make(map[trace.NodeID]struct{})
	for _, det := range res.Detections {
		evicted[det.Accused] = struct{}{}
	}

	var honest, dropper payoffAccumulator
	for n := 0; n < tr.Nodes(); n++ {
		id := trace.NodeID(n)
		acc := &honest
		if _, ok := isDeviant[id]; ok {
			acc = &dropper
		}
		src := res.Sources[n]
		acc.nodes++
		acc.generated += src.Generated
		acc.delivered += src.Delivered
		acc.energy += model.Energy(res.Usage[n])
		acc.memory += res.Usage[n].MemoryByteSeconds / 1024
		if _, out := evicted[id]; out {
			acc.evicted++
		}
	}
	for _, row := range []struct {
		name string
		acc  payoffAccumulator
	}{{"honest", honest}, {"dropper", dropper}} {
		delivery := row.acc.deliveryRate()
		energy := row.acc.perNode(row.acc.energy)
		memory := row.acc.perNode(row.acc.memory)
		evictedPct := 100 * row.acc.perNode(float64(row.acc.evicted))
		payoff := payoffValue(delivery, energy, memory, evictedPct)
		tbl.AddRow(row.name, delivery, energy, memory, evictedPct, payoff)
		opts.logf("payoff %s delivery=%.1f%% energy=%.0f evicted=%.0f%% payoff=%.2f",
			row.name, delivery, energy, evictedPct, payoff)
	}
	return []*metrics.Table{tbl}, nil
}

type payoffAccumulator struct {
	nodes     int
	generated int
	delivered int
	evicted   int
	energy    float64
	memory    float64
}

func (a payoffAccumulator) deliveryRate() float64 {
	if a.generated == 0 {
		return 0
	}
	return 100 * float64(a.delivered) / float64(a.generated)
}

func (a payoffAccumulator) perNode(total float64) float64 {
	if a.nodes == 0 {
		return 0
	}
	return total / float64(a.nodes)
}

// payoffValue instantiates the paper's payoff function: strictly positive,
// decreasing in expected energy and memory cost, and dropping to zero for a
// node with "a non-negligible probability of not being able to send or
// receive messages" — i.e., an evicted node has payoff zero, so the group
// payoff scales with the survival probability. Units are arbitrary; only
// the honest-vs-deviant ordering matters.
func payoffValue(deliveryPercent, energy, memoryKBs, evictedPercent float64) float64 {
	service := deliveryPercent / 100
	cost := 1 + energy/10000 + memoryKBs/100000
	survival := 1 - evictedPercent/100
	return survival * service / cost
}
