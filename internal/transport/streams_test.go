package transport

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSendStreamChunking(t *testing.T) {
	s := &sendStream{}
	s.data = []byte("hello world")
	s.finSet = true
	var got []byte
	var offs []uint64
	finSeen := false
	for {
		chunk, off, fin, ok := s.pending(4)
		if !ok {
			break
		}
		got = append(got, chunk...)
		offs = append(offs, off)
		if fin {
			finSeen = true
		}
	}
	if string(got) != "hello world" {
		t.Errorf("reassembled %q", got)
	}
	if !finSeen {
		t.Error("FIN never signalled")
	}
	if offs[0] != 0 || offs[1] != 4 || offs[2] != 8 {
		t.Errorf("offsets = %v", offs)
	}
	// FIN must be sent exactly once.
	if _, _, _, ok := s.pending(4); ok {
		t.Error("pending returned data after completion")
	}
}

func TestSendStreamEmptyFin(t *testing.T) {
	s := &sendStream{finSet: true}
	chunk, off, fin, ok := s.pending(100)
	if !ok || !fin || len(chunk) != 0 || off != 0 {
		t.Errorf("empty-FIN pending = (%q, %d, %v, %v)", chunk, off, fin, ok)
	}
	if _, _, _, ok := s.pending(100); ok {
		t.Error("FIN offered twice")
	}
}

func TestRecvStreamInOrder(t *testing.T) {
	r := &recvStream{}
	r.push(&bufs{}, 0, []byte("abc"), false)
	r.push(&bufs{}, 3, []byte("def"), true)
	if string(r.delivered) != "abcdef" || !r.complete() {
		t.Errorf("delivered=%q complete=%v", r.delivered, r.complete())
	}
}

func TestRecvStreamOutOfOrder(t *testing.T) {
	r := &recvStream{}
	r.push(&bufs{}, 3, []byte("def"), true)
	if r.complete() || len(r.delivered) != 0 {
		t.Fatalf("premature delivery: %q", r.delivered)
	}
	r.push(&bufs{}, 0, []byte("abc"), false)
	if string(r.delivered) != "abcdef" || !r.complete() {
		t.Errorf("delivered=%q complete=%v", r.delivered, r.complete())
	}
}

func TestRecvStreamOverlapAndDuplicates(t *testing.T) {
	r := &recvStream{}
	r.push(&bufs{}, 0, []byte("abcd"), false)
	r.push(&bufs{}, 2, []byte("cdef"), false) // overlaps delivered prefix
	r.push(&bufs{}, 0, []byte("abcd"), false) // pure duplicate
	r.push(&bufs{}, 6, []byte("gh"), true)
	if string(r.delivered) != "abcdefgh" || !r.complete() {
		t.Errorf("delivered=%q complete=%v", r.delivered, r.complete())
	}
}

func TestRecvStreamQuickReassembly(t *testing.T) {
	// Property: any permutation of segment arrivals reassembles the
	// original byte string.
	f := func(seed int64, n uint8) bool {
		size := int(n%64) + 1
		orig := make([]byte, size)
		for i := range orig {
			orig[i] = byte(i)
		}
		// Split into segments of 1–8 bytes.
		type seg struct {
			off  uint64
			data []byte
			fin  bool
		}
		var segs []seg
		for off := 0; off < size; {
			l := int(uint64(seed)%7) + 1
			seed = seed*1103515245 + 12345
			if off+l > size {
				l = size - off
			}
			segs = append(segs, seg{uint64(off), orig[off : off+l], off+l == size})
			off += l
		}
		// Shuffle deterministically.
		for i := len(segs) - 1; i > 0; i-- {
			seed = seed*6364136223846793005 + 1442695040888963407
			j := int(uint64(seed) % uint64(i+1))
			segs[i], segs[j] = segs[j], segs[i]
		}
		r := &recvStream{}
		for _, s := range segs {
			r.push(&bufs{}, s.off, s.data, s.fin)
		}
		return r.complete() && bytes.Equal(r.delivered, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
