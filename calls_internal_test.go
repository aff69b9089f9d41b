package flexcast

import (
	"strings"
	"testing"
	"time"
)

// TestReplicatedClusterForgetsCompletedMulticasts pins the table bound:
// a completed multicast leaves nothing behind, and Delivered still
// answers for it (issued and no longer open), while unknown and
// in-flight ids stay false.
func TestReplicatedClusterForgetsCompletedMulticasts(t *testing.T) {
	ov, err := NewOverlay([]GroupID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewReplicatedCluster(ReplicatedClusterConfig{Overlay: ov, ReplicasPerGroup: 1, InterRegionRTT: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const total, wave = 10_000, 500
	var ids []MsgID
	for len(ids) < total {
		for i := 0; i < wave; i++ {
			id, err := c.Multicast([]GroupID{1, GroupID(1 + i%2)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if c.Delivered(ids[len(ids)-1]) || c.Delivered(ids[len(ids)-1]+1) {
			t.Fatal("an in-flight or unissued id reads as delivered")
		}
		for waited := 0; c.calls.Len() > 0; waited++ {
			if waited == 1000 {
				t.Fatalf("%d multicasts still open after %v", c.calls.Len(), c.Now())
			}
			c.Run(10 * time.Millisecond)
		}
	}
	for _, id := range ids {
		if !c.Delivered(id) {
			t.Fatalf("completed multicast %s reads as undelivered", id)
		}
	}
	if n := c.calls.Len(); n != 0 {
		t.Fatalf("%d completed multicasts left %d table entries", total, n)
	}
}

// TestClusterCloseFailsPendingCalls: a Call that can never complete —
// its destination's node is gone — fails the moment the cluster closes,
// not when CallTimeout runs out.
func TestClusterCloseFailsPendingCalls(t *testing.T) {
	ov, err := NewOverlay([]GroupID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Overlay: ov, CallTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		n.Close()
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call([]GroupID{2}, []byte("x"))
		errc <- err
	}()
	for open := 0; open == 0; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		open = c.calls.Len()
		c.mu.Unlock()
	}
	c.Close()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "cluster closed") {
			t.Fatalf("pending call returned %v, want a cluster-closed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the pending call waiting for its timeout")
	}
}
