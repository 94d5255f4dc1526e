package netfabric

import (
	"testing"
	"time"
)

const (
	testMinRTO = 2 * time.Millisecond
	testMaxRTO = 50 * time.Millisecond
)

// TestRTTConvergence: a steady stream of identical samples must converge the
// smoothed estimate onto the sample and derive an RTO of srtt plus the
// clock-granularity floor (the variance term decays toward zero).
func TestRTTConvergence(t *testing.T) {
	fl := newFlow(1, 128, 5*time.Millisecond)
	sample := 4 * time.Millisecond
	for i := 0; i < 200; i++ {
		fl.observeRTT(sample, testMinRTO, testMaxRTO)
	}
	if d := fl.srtt - sample; d < -sample/10 || d > sample/10 {
		t.Fatalf("srtt = %v after steady %v samples", fl.srtt, sample)
	}
	want := fl.srtt + rtoGranule
	if fl.rto < want || fl.rto > want+sample/2 {
		t.Fatalf("rto = %v, want ≈ srtt+granule = %v (rttvar %v)", fl.rto, want, fl.rttvar)
	}
}

// TestRTTFirstSample: the estimator must leave the conservative seed in
// place until the first sample, then adopt RFC 6298's initialisation
// (srtt = R, rttvar = R/2).
func TestRTTFirstSample(t *testing.T) {
	seed := 5 * time.Millisecond
	fl := newFlow(1, 128, seed)
	if fl.srtt != 0 || fl.rto != seed {
		t.Fatalf("fresh flow: srtt=%v rto=%v, want 0 and seed %v", fl.srtt, fl.rto, seed)
	}
	fl.observeRTT(8*time.Millisecond, testMinRTO, testMaxRTO)
	if fl.srtt != 8*time.Millisecond || fl.rttvar != 4*time.Millisecond {
		t.Fatalf("first sample: srtt=%v rttvar=%v", fl.srtt, fl.rttvar)
	}
}

// TestRTTClamp: the derived RTO must respect both configured bounds no
// matter how extreme the samples are.
func TestRTTClamp(t *testing.T) {
	fl := newFlow(1, 128, 5*time.Millisecond)
	for i := 0; i < 50; i++ {
		fl.observeRTT(10*time.Microsecond, testMinRTO, testMaxRTO)
	}
	if fl.rto < testMinRTO {
		t.Fatalf("rto = %v under the %v floor", fl.rto, testMinRTO)
	}
	for i := 0; i < 50; i++ {
		fl.observeRTT(10*time.Second, testMinRTO, testMaxRTO)
	}
	if fl.rto > testMaxRTO {
		t.Fatalf("rto = %v over the %v cap", fl.rto, testMaxRTO)
	}
	// Degenerate samples must not poison the estimator.
	fl2 := newFlow(1, 128, 5*time.Millisecond)
	fl2.observeRTT(-time.Second, testMinRTO, testMaxRTO)
	if fl2.rto < testMinRTO || fl2.rto > testMaxRTO {
		t.Fatalf("negative sample produced rto %v", fl2.rto)
	}
}

// TestRTTBackoff: per-packet retransmit timeouts must double with each
// attempt and saturate at MaxRTO, including far past the shift-overflow
// point.
func TestRTTBackoff(t *testing.T) {
	fl := newFlow(1, 128, 5*time.Millisecond)
	fl.rto = 4 * time.Millisecond
	prev := time.Duration(0)
	for attempts := 0; attempts <= 16; attempts++ {
		tx := &txPacket{attempts: attempts}
		d := fl.timeoutFor(tx, testMaxRTO)
		if d < prev {
			t.Fatalf("attempt %d: timeout %v shrank from %v", attempts, d, prev)
		}
		if d > testMaxRTO {
			t.Fatalf("attempt %d: timeout %v exceeds cap %v", attempts, d, testMaxRTO)
		}
		if attempts >= 4 && d != testMaxRTO {
			t.Fatalf("attempt %d: timeout %v, want saturated %v", attempts, d, testMaxRTO)
		}
		prev = d
	}
}

// TestRTTKarn: an ack covering a retransmitted packet must not feed the
// estimator — the ack cannot be matched to a specific transmission, and a
// bogus sample would wreck the timeout (Karn's rule).
func TestRTTKarn(t *testing.T) {
	a, _ := pair(t, Config{})
	fl := newFlow(1, 128, 5*time.Millisecond)
	tx := fl.unacked.push(0, 8)
	tx.lastTx, tx.attempts = time.Now().Add(-time.Hour), 1
	fl.nextSeq = 1
	a.onAck(fl, 1, 200)
	if fl.srtt != 0 {
		t.Fatalf("retransmitted packet fed the estimator: srtt = %v", fl.srtt)
	}
	if fl.unacked.len() != 0 || fl.baseSeq != 1 {
		t.Fatalf("ack not applied: len=%d base=%d", fl.unacked.len(), fl.baseSeq)
	}
	// A clean (never-retransmitted) packet must feed it.
	fl.unacked.push(1, 8).lastTx = time.Now().Add(-3 * time.Millisecond)
	fl.nextSeq = 2
	a.onAck(fl, 2, 200)
	if fl.srtt == 0 {
		t.Fatal("clean packet did not feed the estimator")
	}
}
