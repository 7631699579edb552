package protocol

import (
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/obs"
	"give2get/internal/sim"
)

// FuzzParseKind checks the protocol-name parser against arbitrary input:
// accepted names must round-trip through Kind.String, and every canonical
// name must be accepted. Under plain `go test` only the seed corpus runs;
// `make fuzz` mutates it.
func FuzzParseKind(f *testing.F) {
	for _, name := range KindNames() {
		f.Add(name)
	}
	f.Add("")
	f.Add("EPIDEMIC")
	f.Add("g2g-")
	f.Add("g2g-epidemic ")

	f.Fuzz(func(t *testing.T, input string) {
		kind, err := ParseKind(input)
		if err != nil {
			return
		}
		if got := kind.String(); got != input {
			t.Fatalf("ParseKind(%q) = %v, which renders as %q", input, kind, got)
		}
		if _, err := ParseKind(kind.String()); err != nil {
			t.Fatalf("canonical name %q rejected: %v", kind.String(), err)
		}
	})
}

// FuzzParamsValidate checks that Validate is a total function over arbitrary
// parameter combinations — it must classify, never panic — and that the
// paper's defaults always pass for any positive Δ1.
func FuzzParamsValidate(f *testing.F) {
	f.Add(int64(30*sim.Minute), int64(sim.Hour), 2, 1024, int64(34*sim.Minute))
	f.Add(int64(0), int64(0), 0, 0, int64(0))
	f.Add(int64(-1), int64(1), 1, 1, int64(1))
	f.Add(int64(sim.Hour), int64(sim.Minute), 1, 1, int64(1))

	f.Fuzz(func(t *testing.T, d1, d2 int64, maxRelays, heavy int, frame int64) {
		p := Params{
			Delta1:              sim.Time(d1),
			Delta2:              sim.Time(d2),
			MaxRelays:           maxRelays,
			HeavyHMACIterations: heavy,
			QualityFrame:        sim.Time(frame),
		}
		err := p.Validate()
		valid := d1 > 0 && d2 >= d1 && maxRelays >= 1 && heavy >= 1 && frame > 0
		if valid != (err == nil) {
			t.Fatalf("Validate(%+v) = %v, want valid=%v", p, err, valid)
		}
		if d1 > 0 {
			if err := DefaultParams(sim.Time(d1)).Validate(); err != nil {
				// Δ2 = 2×Δ1 can overflow for absurd Δ1; that must still be
				// classified as invalid, not panic.
				if DefaultParams(sim.Time(d1)).Delta2 >= sim.Time(d1) {
					t.Fatalf("defaults for Δ1=%d rejected: %v", d1, err)
				}
			}
		}
	})
}

// FuzzProofMemo checks the Env's storage-proof memo against the plain
// HeavyHMAC: a cold call, a repeat (a hit, no keystream walk) and a
// perturbed input must each return HeavyHMAC's digest, and only the repeat
// may skip the walk. perturb%3 picks what changes: a message byte flipped in
// the caller's buffer (so the memo must hold its own copy), a seed byte, or
// the iteration count. Iteration counts below 1 clamp inside the HMAC, and
// the memo must agree there too.
func FuzzProofMemo(f *testing.F) {
	f.Add([]byte("message"), []byte("seed"), 4, uint8(0))
	f.Add([]byte{}, []byte{}, 0, uint8(1))
	f.Add([]byte("m"), []byte("a seed that is much longer than one SHA-256 block, to force key hashing"), -3, uint8(2))
	f.Add([]byte{0xff, 0x00, 0xff}, []byte{0x36, 0x5c}, 1, uint8(4))
	sys, err := g2gcrypto.NewFast(2, 1)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, msg, seed []byte, iterations int, perturb uint8) {
		if iterations > 64 {
			iterations = 64 // keep the fuzz fast
		}
		// The fuzzer owns its argument buffers; perturb copies.
		msg, seed = append([]byte{}, msg...), append([]byte{}, seed...)
		env, err := NewEnv(sys, DefaultParams(sim.Minute), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := obs.NewMetrics()
		env.SetMetrics(m)
		env.SetSpans(obs.NewSpanRecorder(&m.Spans))
		check := func(step string, wantWalks int64) {
			got := env.heavyHMAC(msg, seed, iterations)
			if want := g2gcrypto.HeavyHMAC(msg, seed, iterations); got != want {
				t.Fatalf("%s: memo digest %x, HeavyHMAC %x", step, got, want)
			}
			if walks := spanOf(m, obs.SpanCrypto).Count; walks != wantWalks {
				t.Fatalf("%s: %d keystream walks, want %d", step, walks, wantWalks)
			}
		}
		check("cold", 1)
		check("repeat", 1)
		switch perturb % 3 {
		case 0:
			msg = flipByte(msg, int(perturb))
		case 1:
			seed = flipByte(seed, int(perturb))
		default:
			iterations++
		}
		check("perturbed", 2)
		if got := m.Crypto.HeavyHMAC.Count(); got != 3 {
			t.Fatalf("heavy_hmac count = %d, want 3: every call is an obligation", got)
		}
	})
}

// flipByte changes one byte of b in place, or appends one to an empty b.
func flipByte(b []byte, i int) []byte {
	if len(b) == 0 {
		return append(b, 0)
	}
	b[i%len(b)] ^= 0x01
	return b
}
