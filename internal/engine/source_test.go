package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"give2get/internal/invariant"
	"give2get/internal/protocol"
	"give2get/internal/trace"
)

// binarySource round-trips the test trace through the on-disk binary format
// and reopens it as a lazy streaming source.
func binarySource(t *testing.T, tr *trace.Trace) *trace.BinarySource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace"+trace.BinaryExt)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestAuditDifferentialSource is the differential oracle for the trace
// source abstraction: the same audited run fed from the in-memory trace and
// from its binary file must produce byte-identical audit digests, event
// counts, and deliveries. Any drift in contact order or priority assignment
// between the two cursor implementations shows up here.
func TestAuditDifferentialSource(t *testing.T) {
	cases := []struct {
		name      string
		kind      protocol.Kind
		deviation protocol.Deviation
	}{
		{"epidemic", protocol.Epidemic, protocol.Honest},
		{"g2g-epidemic", protocol.G2GEpidemic, protocol.Honest},
		{"g2g-epidemic-droppers", protocol.G2GEpidemic, protocol.Dropper},
		{"g2g-delegation-frequency", protocol.G2GDelegationFrequency, protocol.Honest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(src trace.Source) *invariant.Report {
				cfg := auditConfig(t, tc.kind)
				cfg.Trace = src
				if tc.deviation != protocol.Honest {
					cfg.Deviants = []trace.NodeID{2, 7, 10}
					cfg.Deviation = tc.deviation
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return mustAuditClean(t, res)
			}
			base := auditConfig(t, tc.kind)
			mem := base.Trace.(*trace.Trace)
			memory := run(mem)
			streamed := run(binarySource(t, mem))
			if memory.Digest != streamed.Digest {
				t.Errorf("audit digests differ: memory=%s binary=%s",
					memory.Digest, streamed.Digest)
			}
			if memory.Events != streamed.Events {
				t.Errorf("event counts differ: memory=%d binary=%d",
					memory.Events, streamed.Events)
			}
			if len(memory.Deliveries) != len(streamed.Deliveries) {
				t.Fatalf("delivery sets differ: memory=%d binary=%d",
					len(memory.Deliveries), len(streamed.Deliveries))
			}
			for i := range memory.Deliveries {
				if memory.Deliveries[i] != streamed.Deliveries[i] {
					t.Fatalf("delivery %d differs", i)
				}
			}
		})
	}
}

// TestBinarySourceCommunities checks that community detection — which needs
// random access — works transparently when the engine is fed a file-backed
// source: the engine materializes the stream once for detection, and the
// run, whose deviants drop only for outsiders, equals the in-memory run.
func TestBinarySourceCommunities(t *testing.T) {
	cfg := baseConfig(t, protocol.G2GEpidemic)
	cfg.Deviants = []trace.NodeID{2, 7}
	cfg.Deviation = protocol.Dropper
	cfg.OnlyOutsiders = true // forces community detection in buildBehavior
	mem := cfg.Trace.(*trace.Trace)

	memRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = binarySource(t, mem)
	binRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if memRes.Summary != binRes.Summary {
		t.Fatalf("summaries differ:\nmemory=%+v\nbinary=%+v", memRes.Summary, binRes.Summary)
	}
	if !reflect.DeepEqual(memRes.Detections, binRes.Detections) || !reflect.DeepEqual(memRes.Usage, binRes.Usage) {
		t.Fatal("detections or usage differ between the memory and binary runs")
	}
}
