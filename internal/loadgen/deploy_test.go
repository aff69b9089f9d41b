package loadgen

import (
	"testing"

	"flexcast/internal/metrics"
)

// TestDeployTCPBackToBack deploys 50 paper-scale TCP clusters (12 group
// nodes and 2 client processes, 14 listeners each) one after the other.
// Every deployment must come up: the address book is built from listeners
// that stay open until their node takes them over, so no port can be
// claimed twice or lost between being chosen and being served.
func TestDeployTCPBackToBack(t *testing.T) {
	cfg := shortCfg()
	cfg.Transport = "tcp"
	if err := cfg.Fill(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		proto, err := assemble(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{cfg: cfg, proto: proto, hist: metrics.NewHistogram(), readHist: metrics.NewHistogram()}
		dep, clients, err := launch(cfg, r)
		if err != nil {
			t.Fatalf("deployment %d: %v", i, err)
		}
		if len(dep.nodes) != cfg.Groups || len(clients) != cfg.Clients {
			t.Fatalf("deployment %d: %d nodes, %d clients", i, len(dep.nodes), len(clients))
		}
		dep.close()
	}
}
