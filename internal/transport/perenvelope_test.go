package transport

import "flexcast/amcast"

// Per-envelope conveniences over the batch API, for tests that speak one
// envelope at a time.

func (n *InMemNet) AddHandler(id amcast.NodeID, h func(env amcast.Envelope)) error {
	return n.AddBatchHandler(id, perEnvelope(h))
}

func (n *InMemNet) Send(from, to amcast.NodeID, env amcast.Envelope) {
	n.SendBatch(from, to, []amcast.Envelope{env})
}

func NewTCPNode(id amcast.NodeID, book AddrBook, h func(env amcast.Envelope)) (*TCPNode, error) {
	return NewTCPBatchNode(id, book, perEnvelope(h))
}

func perEnvelope(h func(env amcast.Envelope)) BatchHandler {
	return func(envs []amcast.Envelope) {
		for _, env := range envs {
			h(env)
		}
	}
}
