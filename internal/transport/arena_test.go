package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestArenaSizeClasses(t *testing.T) {
	a := &Arena{poison: true}
	for _, n := range []int{0, 1, 1200, 2048, 2049, 300_000, 1 << arenaMaxShift} {
		b := a.get(n)
		if len(b) != 0 || cap(b) < n || cap(b) < 1<<arenaMinShift {
			t.Fatalf("get(%d): len %d cap %d", n, len(b), cap(b))
		}
		a.put(b)
		if again := a.get(n); cap(again) != cap(b) {
			t.Errorf("get(%d) after put: cap %d, want the pooled %d", n, cap(again), cap(b))
		} else {
			a.put(again)
		}
	}
	// A body-sized request is not served from a datagram-sized buffer.
	a.put(make([]byte, 0, 2048))
	if b := a.get(300_000); cap(b) < 300_000 {
		t.Errorf("get(300000) returned cap %d", cap(b))
	}
	// Out-of-range buffers are not pooled; foreign in-range ones are, by the
	// largest class they can serve.
	before := a.Pooled()
	a.put(make([]byte, 0, 100))
	a.put(make([]byte, 0, 4<<arenaMaxShift))
	if a.Pooled() != before {
		t.Errorf("pooled %d buffers outside the size range", a.Pooled()-before)
	}
	a.put(make([]byte, 0, 5000))
	if b := a.get(4096); cap(b) != 5000 {
		t.Errorf("foreign 5000-byte buffer not reused for get(4096): cap %d", cap(b))
	}
	if huge := a.get(3 << arenaMaxShift); cap(huge) < 3<<arenaMaxShift {
		t.Errorf("get beyond the largest class: cap %d", cap(huge))
	}
}

func TestArenaPoisonAndDoublePut(t *testing.T) {
	a := &Arena{poison: true}
	b := append(a.get(10), "secret"...)
	a.put(b)
	if bytes.Contains(b[:cap(b)], []byte("secret")) {
		t.Error("a returned buffer kept its contents under poison")
	}
	defer func() {
		if recover() == nil {
			t.Error("second put of one buffer did not panic under poison")
		}
	}()
	a.put(b)
}

func TestNilArena(t *testing.T) {
	var a *Arena
	if b := a.get(100); b != nil {
		t.Errorf("nil arena get = %v", b)
	}
	a.put(make([]byte, 4096)) // must not panic
	m := &bufs{}
	buf := m.append(nil, []byte("abc"))
	buf = m.append(buf, bytes.Repeat([]byte("x"), 5000))
	if len(buf) != 5003 || len(m.retired) != 0 {
		t.Errorf("heap append: len %d, %d retired", len(buf), len(m.retired))
	}
}

// refStream is the trivial reassembler recvStream is checked against: a
// byte map of what has arrived.
type refStream struct {
	data   []byte
	have   []bool
	finOff int
	hasFin bool
}

func (r *refStream) push(off int, data []byte, fin bool) {
	if fin {
		r.hasFin, r.finOff = true, off+len(data)
	}
	for i, b := range data {
		r.data[off+i], r.have[off+i] = b, true
	}
}

func (r *refStream) prefix() []byte {
	n := 0
	for n < len(r.have) && r.have[n] {
		n++
	}
	return r.data[:n]
}

// Property: whatever the order, duplication and overlap of the frames a
// byte string is cut into, recvStream's prefix and completion match the
// reference after every push — on the heap and on a poisoned arena, whose
// buffers all come back at release.
func TestRecvStreamMatchesReference(t *testing.T) {
	for _, withArena := range []bool{false, true} {
		t.Run(fmt.Sprintf("arena=%v", withArena), func(t *testing.T) {
			m := &bufs{}
			if withArena {
				m.arena = &Arena{poison: true}
			}
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 400; trial++ {
				size := 1 + rng.Intn(9000)
				if trial%10 == 0 {
					size = 1 + rng.Intn(40)
				}
				orig := make([]byte, size)
				rng.Read(orig)
				withFin := trial%3 != 0
				type frame struct {
					off  int
					data []byte
					fin  bool
				}
				var frames []frame
				// A covering split, each piece stretched backwards at random so
				// that pieces overlap …
				maxPiece := 1 + rng.Intn(1500)
				for off := 0; off < size; {
					n := min(1+rng.Intn(maxPiece), size-off)
					from := off - rng.Intn(min(off, 50)+1)
					frames = append(frames, frame{from, orig[from : off+n], withFin && off+n == size})
					off += n
				}
				// … plus duplicates and arbitrary extra sub-ranges, shuffled.
				for i, n := 0, rng.Intn(len(frames)+1); i < n; i++ {
					frames = append(frames, frames[rng.Intn(len(frames))])
				}
				for i, n := 0, rng.Intn(4); i < n; i++ {
					from := rng.Intn(size)
					to := from + rng.Intn(size-from+1)
					frames = append(frames, frame{from, orig[from:to], withFin && to == size})
				}
				if trial%4 != 0 { // every fourth trial stays in order
					rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
				}

				r := &recvStream{}
				ref := &refStream{data: make([]byte, size), have: make([]bool, size)}
				for i, f := range frames {
					// The frame arrives in a scratch the caller reuses, as packet
					// payloads do: recvStream must not keep a reference to it.
					scratch := append([]byte(nil), f.data...)
					r.push(m, uint64(f.off), scratch, f.fin)
					for j := range scratch {
						scratch[j] = 0xee
					}
					ref.push(f.off, f.data, f.fin)
					want := ref.prefix()
					if !bytes.Equal(r.delivered, want) || r.nextOff != uint64(len(want)) {
						t.Fatalf("trial %d frame %d: prefix of %d bytes, want %d (or contents differ)", trial, i, len(r.delivered), len(want))
					}
					if done := ref.hasFin && len(want) >= ref.finOff; r.complete() != done {
						t.Fatalf("trial %d frame %d: complete = %v, want %v", trial, i, r.complete(), done)
					}
					for k := 1; k < len(r.segments); k++ {
						if r.segments[k-1].offset > r.segments[k].offset {
							t.Fatalf("trial %d: segments out of order", trial)
						}
					}
				}
				if !bytes.Equal(r.delivered, orig) || r.complete() != withFin {
					t.Fatalf("trial %d: reassembled %d of %d bytes, complete = %v (FIN sent: %v)", trial, len(r.delivered), size, r.complete(), withFin)
				}
				r.release(m)
				m.releaseRetired()
			}
			if withArena {
				// Everything taken came back: one more stream is served from
				// the pool, which is therefore as large afterwards as before.
				pooled := m.arena.Pooled()
				if pooled == 0 {
					t.Fatal("nothing was pooled")
				}
				r := &recvStream{}
				r.push(m, 0, make([]byte, 9000), true)
				r.release(m)
				m.releaseRetired()
				if got := m.arena.Pooled(); got != pooled {
					t.Errorf("pool went from %d to %d buffers across a stream served from it", pooled, got)
				}
			}
		})
	}
}
