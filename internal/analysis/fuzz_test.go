package analysis

import (
	"bytes"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// FuzzAccumulatorUnmarshal feeds hostile bytes to both decoders
// (UnmarshalAccumulator and UnmarshalCampaign). The contract under fuzzing:
// no input may panic or over-allocate, and any input a decoder accepts must
// re-marshal canonically — Marshal of the decoded value decodes again and
// re-marshals to the same bytes. That second property is what lets the
// shard collector treat received blobs as opaque: a non-canonical encoding
// (redundant varint widths, unsorted keys) is rejected at the door rather
// than silently normalised into a blob that no longer matches its sender's.
func FuzzAccumulatorUnmarshal(f *testing.F) {
	// A tiny seeded world provides both the resolver the decoders need and
	// realistic seed blobs covering every section of the format.
	p := websim.DefaultProfile()
	p.Scale = 1_000_000
	world := websim.Generate(p)
	res := world.ASDB()

	camp := NewCampaignAccumulator()
	for _, wk := range []int{1, 2} {
		r, err := scanner.Run(world, scanner.Config{Week: wk, Engine: scanner.EngineFast, Seed: 3, Workers: 2})
		if err != nil {
			f.Fatal(err)
		}
		acc := camp.StartWeek(wk, r.IPv6, res)
		for i := range r.Domains {
			acc.Add(&r.Domains[i])
		}
		f.Add(acc.Marshal())
	}
	blob := camp.Marshal()
	f.Add(blob)
	f.Add(NewAccumulator(1, false, res).Marshal())
	f.Add(NewCampaignAccumulator().Marshal())
	// Truncations, header corruption, and a flipped interior byte.
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:3])
	f.Add([]byte{})
	f.Add([]byte{'q', 's', 1, 'W'})
	f.Add([]byte{'q', 's', 2, 'C'})
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/3] ^= 0xFF
	f.Add(corrupt)
	// Non-canonical IP texts and a 0/0 longitudinal entry, one edit away
	// from blobs the decoders accept.
	for _, b := range nonCanonicalBlobs(res) {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := UnmarshalAccumulator(data, res); err == nil {
			b2 := a.Marshal()
			a2, err2 := UnmarshalAccumulator(b2, res)
			if err2 != nil {
				t.Fatalf("re-decode of accepted accumulator failed: %v", err2)
			}
			if b3 := a2.Marshal(); !bytes.Equal(b2, b3) {
				t.Fatalf("accumulator Marshal not byte-stable: %d vs %d bytes", len(b2), len(b3))
			}
		}
		if c, err := UnmarshalCampaign(data, res); err == nil {
			b2 := c.Marshal()
			c2, err2 := UnmarshalCampaign(b2, res)
			if err2 != nil {
				t.Fatalf("re-decode of accepted campaign failed: %v", err2)
			}
			if b3 := c2.Marshal(); !bytes.Equal(b2, b3) {
				t.Fatalf("campaign Marshal not byte-stable: %d vs %d bytes", len(b2), len(b3))
			}
		}
	})
}
