package simnet

import (
	"testing"
	"time"

	"proteus/internal/obs"
)

func TestSameSiteFree(t *testing.T) {
	n := New(Config{BaseLatency: time.Millisecond})
	if d := n.Charge(1, 1, 1000); d != 0 {
		t.Errorf("same-site charge = %v", d)
	}
	if st := n.Stats(1, 1); st.Messages != 0 {
		t.Error("same-site traffic recorded")
	}
}

func TestChargeSleepsAndRecords(t *testing.T) {
	n := New(Config{BaseLatency: 2 * time.Millisecond})
	start := time.Now()
	d := n.Charge(1, 2, 100)
	if time.Since(start) < 2*time.Millisecond || d < 2*time.Millisecond {
		t.Errorf("charge %v did not sleep", d)
	}
	st := n.Stats(1, 2)
	if st.Messages != 1 || st.Bytes != 100 {
		t.Errorf("stats = %+v", st)
	}
	// Reverse direction untouched.
	if st := n.Stats(2, 1); st.Messages != 0 {
		t.Error("reverse link recorded")
	}
}

func TestBandwidthCharge(t *testing.T) {
	n := New(Config{BaseLatency: 0, BytesPerSecond: 1 << 20}) // 1 MiB/s
	est := n.EstimateLatency(1, 2, 1<<19)                     // 0.5 MiB -> ~0.5 s
	if est < 400*time.Millisecond || est > 600*time.Millisecond {
		t.Errorf("estimate = %v", est)
	}
	if n.EstimateLatency(3, 3, 1<<20) != 0 {
		t.Error("same-site estimate nonzero")
	}
}

func TestTotalBytes(t *testing.T) {
	n := New(Config{})
	n.Charge(1, 2, 10)
	n.Charge(2, 1, 5)
	n.Charge(1, 3, 7)
	if got := n.TotalBytes(); got != 22 {
		t.Errorf("total = %d", got)
	}
}

func TestKindCountersPartitionTotals(t *testing.T) {
	reg := obs.NewRegistry()
	n := New(Config{})
	n.SetObs(reg)
	n.ChargeKind(KindPrepare, 1, 2, 100)
	n.ChargeKind(KindPrepare, 2, 1, 30)
	n.Charge(1, 2, 7)                // untagged
	n.ChargeKind(KindRead, 3, 3, 50) // same site: free
	want := map[Kind][2]int64{KindPrepare: {2, 130}, KindOther: {1, 7}}
	var msgs, bytes int64
	for k := Kind(0); k < NumKinds; k++ {
		got := [2]int64{reg.Counter("net.messages." + k.String()).Value(), reg.Counter("net.bytes." + k.String()).Value()}
		if got != want[k] {
			t.Errorf("%s: %v, want %v", k, got, want[k])
		}
		msgs, bytes = msgs+got[0], bytes+got[1]
	}
	if msgs != reg.Counter("net.messages").Value() || bytes != reg.Counter("net.bytes").Value() {
		t.Errorf("kinds sum to %d messages, %d bytes; totals %d, %d", msgs, bytes,
			reg.Counter("net.messages").Value(), reg.Counter("net.bytes").Value())
	}
}
