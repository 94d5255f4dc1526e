package lci

import (
	"testing"
	"time"

	"lcigraph/internal/fabric"
)

func TestParseInjectStall(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want *StallSpec // nil: rejected
	}{
		{"1:3s:10s", &StallSpec{Shard: 1, After: 3 * time.Second, Dur: 10 * time.Second}},
		{"0:0s:1ms", &StallSpec{Dur: time.Millisecond}},
		{"", nil},
		{"1:3s", nil},
		{"x:3s:10s", nil},
		{"-1:3s:10s", nil},
		{"1:nope:10s", nil},
		{"1:3s:0s", nil},
		{"1:3s:10s:extra", nil},
	} {
		got, err := ParseInjectStall(tc.in)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("ParseInjectStall(%q) accepted: %+v", tc.in, got)
		case tc.want != nil && (err != nil || *got != *tc.want):
			t.Errorf("ParseInjectStall(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}

// TestInjectStallWedgesServe: with Options.InjectStall naming shard 0,
// Serve must go quiet for the configured window (the progress counter stops
// advancing), and stop must still win against a long wedge.
func TestInjectStallWedgesServe(t *testing.T) {
	f := fabric.New(1, fabric.TestProfile())
	e := NewEndpoint(f.Endpoint(0), Options{
		InjectStall: &StallSpec{Shard: 0, After: 50 * time.Millisecond, Dur: 30 * time.Second}})
	if e.injectStall == nil {
		t.Fatal("injection not armed for shard 0")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		e.Serve(stop)
		close(done)
	}()
	// Wait past the arm delay so the wedge is in force, then ask Serve to
	// stop: it must return promptly despite the 30s stall window.
	time.Sleep(150 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not honor stop during an injected stall")
	}
}

// TestInjectStallShardMismatch: an injection naming another shard must not
// arm on shard 0, and in a sharded rank only the named shard arms it.
func TestInjectStallShardMismatch(t *testing.T) {
	f := fabric.New(1, fabric.TestProfile())
	e := NewEndpoint(f.Endpoint(0), Options{
		InjectStall: &StallSpec{Shard: 3, After: time.Millisecond, Dur: time.Second}})
	if e.injectStall != nil {
		t.Fatal("injection armed on the wrong shard")
	}
	s := NewSharded(fabric.New(1, fabric.TestProfile()).Endpoint(0), Options{Shards: 2,
		InjectStall: &StallSpec{Shard: 1, After: time.Millisecond, Dur: time.Second}})
	if s.eps[0].injectStall != nil || s.eps[1].injectStall == nil {
		t.Fatalf("sharded arming: shard 0 %v, shard 1 %v", s.eps[0].injectStall, s.eps[1].injectStall)
	}
}
