package flexcast_test

import (
	"sync"
	"testing"
	"time"

	"flexcast"
)

func abcOverlay(t *testing.T) *flexcast.Overlay {
	t.Helper()
	ov, err := flexcast.NewOverlay([]flexcast.GroupID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

func TestClusterCallFlexCast(t *testing.T) {
	var mu sync.Mutex
	delivered := make(map[flexcast.GroupID][]flexcast.MsgID)
	cl, err := flexcast.NewCluster(flexcast.ClusterConfig{
		Overlay: abcOverlay(t),
		OnDeliver: func(d flexcast.Delivery) {
			mu.Lock()
			delivered[d.Group] = append(delivered[d.Group], d.Msg.ID)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	id1, err := cl.Call([]flexcast.GroupID{1, 3}, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := cl.Call([]flexcast.GroupID{1, 2, 3}, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered[1]) != 2 || delivered[1][0] != id1 || delivered[1][1] != id2 {
		t.Fatalf("group 1 delivered %v, want [%v %v]", delivered[1], id1, id2)
	}
	if len(delivered[2]) != 1 || delivered[2][0] != id2 {
		t.Fatalf("group 2 delivered %v", delivered[2])
	}
}

func TestClusterAllProtocolsAgree(t *testing.T) {
	tree, err := flexcast.NewTree(1, map[flexcast.GroupID][]flexcast.GroupID{1: {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]flexcast.ClusterConfig{
		"flexcast":     {Protocol: flexcast.FlexCast, Overlay: abcOverlay(t)},
		"skeen":        {Protocol: flexcast.Distributed, Overlay: abcOverlay(t)},
		"hierarchical": {Protocol: flexcast.Hierarchical, Tree: tree},
	}
	for name, cfg := range configs {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			seqs := make(map[flexcast.GroupID][]flexcast.MsgID)
			cfg.OnDeliver = func(d flexcast.Delivery) {
				mu.Lock()
				seqs[d.Group] = append(seqs[d.Group], d.Msg.ID)
				mu.Unlock()
			}
			cl, err := flexcast.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 5; i++ {
				if _, err := cl.Call([]flexcast.GroupID{1, 2, 3}, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for g, seq := range seqs {
				if len(seq) != 5 {
					t.Fatalf("group %d delivered %d messages", g, len(seq))
				}
				for i := range seq {
					if seq[i] != seqs[1][i] {
						t.Fatalf("group %d order %v differs from group 1 %v", g, seq, seqs[1])
					}
				}
			}
		})
	}
}

func TestClusterMulticastAsync(t *testing.T) {
	done := make(chan flexcast.Delivery, 8)
	cl, err := flexcast.NewCluster(flexcast.ClusterConfig{
		Overlay:   abcOverlay(t),
		OnDeliver: func(d flexcast.Delivery) { done <- d },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id, err := cl.Multicast([]flexcast.GroupID{2}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-done:
		if d.Msg.ID != id || d.Group != 2 {
			t.Fatalf("delivery = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never arrived")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := flexcast.NewCluster(flexcast.ClusterConfig{Protocol: flexcast.FlexCast}); err == nil {
		t.Error("flexcast cluster without overlay accepted")
	}
	if _, err := flexcast.NewCluster(flexcast.ClusterConfig{Protocol: flexcast.Hierarchical}); err == nil {
		t.Error("hierarchical cluster without tree accepted")
	}
	cl, err := flexcast.NewCluster(flexcast.ClusterConfig{Overlay: abcOverlay(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Multicast(nil, nil); err == nil {
		t.Error("empty destination accepted")
	}
	if _, err := cl.Multicast([]flexcast.GroupID{9}, nil); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestClusterCloseIdempotentAndRejects(t *testing.T) {
	cl, err := flexcast.NewCluster(flexcast.ClusterConfig{Overlay: abcOverlay(t)})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close()
	if _, err := cl.Multicast([]flexcast.GroupID{1}, nil); err == nil {
		t.Error("multicast after close accepted")
	}
}

func TestAWSTopologyExports(t *testing.T) {
	if len(flexcast.AWSGroups()) != 12 {
		t.Fatal("AWS group count wrong")
	}
	if flexcast.O1().Len() != 12 || flexcast.O2().Len() != 12 {
		t.Fatal("overlay sizes wrong")
	}
	if flexcast.T1().Len() != 12 || flexcast.T2().Len() != 12 || flexcast.T3().Len() != 12 {
		t.Fatal("tree sizes wrong")
	}
	if flexcast.AWSRegionName(9) != "ap-northeast-1" {
		t.Fatal("region name wrong")
	}
	if flexcast.AWSRTTMicros(1, 2) <= 0 {
		t.Fatal("RTT not positive")
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	res, err := flexcast.RunExperimentChecked(flexcast.FlexCast, flexcast.ExperimentConfig{
		Locality:   0.95,
		Clients:    24,
		GlobalOnly: true,
		Duration:   1_000_000,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("experiment completed nothing")
	}
}
