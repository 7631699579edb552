package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"give2get/internal/trace"
)

// ConfigFingerprint identifies a run: it hashes every deterministic run
// parameter and every contact of the trace, so two configurations with the
// same fingerprint run the same simulation. A sweep journal entry restores
// only under the fingerprint it was written with.
//
// Reading the trace is the costly part, so the contacts' digest is kept in
// traces, keyed by source; a caller fingerprinting a batch shares one map
// across its configurations and reads each distinct trace once. Sources are
// compared by identity, which every Source in this module supports.
func ConfigFingerprint(cfg Config, traces map[trace.Source][sha256.Size]byte) ([sha256.Size]byte, error) {
	var out [sha256.Size]byte
	if cfg.Trace == nil {
		return out, errors.New("engine: nil trace")
	}
	contacts, ok := traces[cfg.Trace]
	if !ok {
		var err error
		if contacts, err = contactDigest(cfg.Trace); err != nil {
			return out, fmt.Errorf("engine: fingerprint trace %s: %w", cfg.Trace.Name(), err)
		}
		traces[cfg.Trace] = contacts
	}
	crypto := cfg.Crypto
	if crypto == "" {
		crypto = CryptoFast
	}
	h := sha256.New()
	fmt.Fprintf(h, "proto=%d seed=%d crypto=%s pop=%d contacts=%x\n",
		cfg.Protocol, cfg.Seed, crypto, cfg.Trace.Nodes(), contacts)
	fmt.Fprintf(h, "params=%d,%d,%d,%d,%d\n",
		cfg.Params.Delta1, cfg.Params.Delta2, cfg.Params.MaxRelays,
		cfg.Params.HeavyHMACIterations, cfg.Params.QualityFrame)
	fmt.Fprintf(h, "window=%d,%d warmup=%d extra=%d\n",
		cfg.WindowFrom, cfg.WindowTo, cfg.Warmup, cfg.RunExtra)
	fmt.Fprintf(h, "interval=%d quiet=%d payload=%d\n",
		cfg.MessageInterval, cfg.GenerationQuiet, payloadBytes)
	fmt.Fprintf(h, "deviants=%v deviation=%d outsiders=%t audit=%t\n",
		cfg.Deviants, cfg.Deviation, cfg.OnlyOutsiders, cfg.Audit != nil)
	h.Sum(out[:0])
	return out, nil
}

// contactDigest is a SHA-256 over every contact of the source in stream
// order, each as both node ids, then start and end, at fixed width.
func contactDigest(src trace.Source) ([sha256.Size]byte, error) {
	var out [sha256.Size]byte
	cur, err := src.Cursor()
	if err != nil {
		return out, err
	}
	defer cur.Close()
	h := sha256.New()
	var buf [4 + 4 + 8 + 8]byte
	for {
		c, ok := cur.Next()
		if !ok {
			break
		}
		b := binary.BigEndian.AppendUint32(buf[:0], uint32(c.A))
		b = binary.BigEndian.AppendUint32(b, uint32(c.B))
		b = binary.BigEndian.AppendUint64(b, uint64(c.Start))
		h.Write(binary.BigEndian.AppendUint64(b, uint64(c.End)))
	}
	if err := cur.Err(); err != nil {
		return out, err
	}
	h.Sum(out[:0])
	return out, nil
}
