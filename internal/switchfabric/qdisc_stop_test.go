package switchfabric

import (
	"testing"
	"time"

	"typhoon/internal/ring"
)

// TestTunnelPortReadBatchUnblocksAfterStop reproduces the tunnel-egress
// shutdown path: a consumer loops on ReadBatch against a backlogged,
// QoS-enabled tunnel port while the switch stops underneath it. The loop
// must observe ring.ErrClosed after draining — a consumer stuck cycling on
// timeouts deadlocks tunnelEndpoint.close's WaitGroup.
func TestTunnelPortReadBatchUnblocksAfterStop(t *testing.T) {
	sw := New("host-stop", 1, Options{
		RingCapacity:     1024,
		IdleScanInterval: 10 * time.Millisecond,
		EgressQueues: []QueueClass{
			{Name: "guaranteed", Weight: 4},
			{Name: "best-effort", Weight: 1},
		},
	})
	attachMaster(sw, &recordingSink{})
	sw.Start()
	p, err := sw.AddTunnelPort("tun0")
	if err != nil {
		t.Fatal(err)
	}
	// Backlog the best-effort class directly, as a flood would.
	for i := 0; i < 900; i++ {
		p.qd.enqueue(1, make([]byte, 512))
	}

	done := make(chan error, 1)
	go func() {
		drained := 0
		for {
			batch, err := p.ReadBatch(nil, 64, 500*time.Millisecond)
			drained += len(batch)
			if err != nil {
				t.Logf("consumer exited after draining %d frames: %v", drained, err)
				done <- err
				return
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	sw.Stop()

	select {
	case err := <-done:
		if err != ring.ErrClosed {
			t.Fatalf("consumer exited with %v, want ring.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadBatch consumer still running 5s after Switch.Stop")
	}
}
