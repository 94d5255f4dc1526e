package bitset

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		if !b.Set(i) {
			t.Fatalf("Set(%d) reported already-set", i)
		}
		if b.Set(i) {
			t.Fatalf("second Set(%d) reported newly-set", i)
		}
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	b.Clear(64)
	if b.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	b.Clear(64) // idempotent
	if b.Count() != 7 {
		t.Fatalf("Count = %d, want 7", b.Count())
	}
	b.Reset()
	if b.Any() || b.Count() != 0 {
		t.Fatal("bits remain after Reset")
	}
}

func TestForEachOrder(t *testing.T) {
	b := New(200)
	want := []int{3, 64, 65, 100, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestQuickAgainstMap cross-checks the bitset against a map model over random
// operation sequences.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 300
		b := New(n)
		model := map[int]bool{}
		for _, op := range ops {
			i := int(op) % n
			switch op % 3 {
			case 0:
				b.Set(i)
				model[i] = true
			case 1:
				b.Clear(i)
				delete(model, i)
			case 2:
				if b.Test(i) != model[i] {
					return false
				}
			}
		}
		if b.Count() != len(model) {
			return false
		}
		ok := true
		b.ForEach(func(i int) {
			if !model[i] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeOps(t *testing.T) {
	b := New(256)
	set := []int{0, 5, 63, 64, 70, 127, 128, 200, 255}
	for _, i := range set {
		b.Set(i)
	}
	for _, tc := range []struct{ lo, hi, want int }{
		{0, 256, 9}, {0, 0, 0}, {0, 1, 1}, {1, 5, 0}, {5, 6, 1},
		{64, 128, 3}, {63, 65, 2}, {128, 256, 3}, {201, 255, 0},
		{-5, 1000, 9},
	} {
		if got := b.CountRange(tc.lo, tc.hi); got != tc.want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
		n := 0
		b.ForEachRange(tc.lo, tc.hi, func(i int) {
			if i < tc.lo || i >= tc.hi || !b.Test(i) {
				t.Errorf("ForEachRange(%d,%d) visited bad index %d", tc.lo, tc.hi, i)
			}
			n++
		})
		if n != tc.want {
			t.Errorf("ForEachRange(%d,%d) visited %d, want %d", tc.lo, tc.hi, n, tc.want)
		}
	}
}

// modes builds a bitset in each write mode.
var modes = []struct {
	name string
	new  func(n int) *Bitset
}{{"concurrent", New}, {"single-writer", NewSingleWriter}}

// TestClearRange: ClearRange clears exactly the bits in [lo, hi) that lie
// in [0, Len), in both write modes, and leaves every other bit set.
func TestClearRange(t *testing.T) {
	const n = 200 // last word partly used
	for _, m := range modes {
		for _, tc := range []struct {
			name   string
			lo, hi int
		}{
			{"empty", 70, 70},
			{"inverted", 90, 10},
			{"one bit", 5, 6},
			{"inside one word", 3, 60},
			{"whole word", 64, 128},
			{"word boundary", 63, 65},
			{"across words", 10, 150},
			{"hi past Len", 150, 1000},
			{"lo below zero", -7, 3},
			{"everything", 0, n},
		} {
			b := m.new(n)
			for i := 0; i < n; i++ {
				b.Set(i)
			}
			b.ClearRange(tc.lo, tc.hi)
			for i := 0; i < n; i++ {
				if want := i < tc.lo || i >= tc.hi; b.Test(i) != want {
					t.Errorf("%s %s: ClearRange(%d,%d) left bit %d = %v, want %v",
						m.name, tc.name, tc.lo, tc.hi, i, b.Test(i), want)
				}
			}
		}
	}
}

// TestSingleWriterMatchesConcurrent: the same random sequence of writes on
// a single-writer and a concurrent bitset gives the same Set results and
// the same bits.
func TestSingleWriterMatchesConcurrent(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(7))
	conc, single := New(n), NewSingleWriter(n)
	for op := 0; op < 20000; op++ {
		i, j := rng.Intn(n+1), rng.Intn(n+1)
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			if i == n {
				i--
			}
			if a, b := conc.Set(i), single.Set(i); a != b {
				t.Fatalf("op %d: Set(%d) = %v concurrent, %v single-writer", op, i, a, b)
			}
		case 4, 5:
			if i == n {
				i--
			}
			conc.Clear(i)
			single.Clear(i)
		case 6:
			conc.ClearRange(i, j)
			single.ClearRange(i, j)
		default:
			if rng.Intn(50) == 0 {
				conc.Reset()
				single.Reset()
			}
		}
	}
	for i := 0; i < n; i++ {
		if conc.Test(i) != single.Test(i) {
			t.Fatalf("bit %d: %v concurrent, %v single-writer", i, conc.Test(i), single.Test(i))
		}
	}
	if conc.Count() != single.Count() {
		t.Fatalf("Count %d concurrent, %d single-writer", conc.Count(), single.Count())
	}
}

// TestConcurrentClearRange: goroutines clearing adjacent ranges that share
// boundary words, while others set bits in words no range touches, lose no
// set and clear exactly their ranges.
func TestConcurrentClearRange(t *testing.T) {
	const n, span, workers = 1024, 50, 8 // ranges [0, 400): 50 is not a word multiple
	b := New(n)
	for i := 0; i < workers*span; i++ {
		b.Set(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			b.ClearRange(g*span, (g+1)*span)
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 512 + g; i < n; i += workers {
				b.Set(i)
			}
		}(g)
	}
	wg.Wait()
	if got, want := b.Count(), n-512; got != want || b.CountRange(0, 512) != 0 {
		t.Fatalf("Count = %d (%d below 512), want %d (0)", got, b.CountRange(0, 512), want)
	}
}

// TestConcurrentSet checks that N goroutines setting disjoint random bits
// lose nothing, and that exactly one Set per bit reports "newly set".
func TestConcurrentSet(t *testing.T) {
	const n = 1 << 14
	b := New(n)
	idx := rand.New(rand.NewSource(1)).Perm(n)
	var newly sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutines overlap on every index: each bit is attempted 8×.
			for _, i := range idx {
				if b.Set(i) {
					if _, dup := newly.LoadOrStore(i, g); dup {
						t.Errorf("bit %d newly-set twice", i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}

func BenchmarkSet(b *testing.B) {
	bs := New(1 << 20)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			bs.Set(i & (1<<20 - 1))
			i += 997
		}
	})
}
