package core

import (
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// SimTransport is a test helper: a latency-modeled transport that
// delivers messages after a fixed one-way latency without a PCIe device
// behind it. An optional pcie.ChannelFaults process makes it faultable
// the same way the mailbox is, so the reliability layer can be tested on
// a bare link.
type SimTransport struct {
	sim     *sim.Simulator
	latency sim.Time
	recv    func(Message)
	faults  *pcie.ChannelFaults

	sent        uint64
	dropped     uint64 // messages with no receiver installed
	faultLost   uint64 // messages consumed by fault injection
	corruptLost uint64 // arrivals discarded on checksum mismatch
}

// NewSimTransport returns a transport delivering after latency.
func NewSimTransport(s *sim.Simulator, latency sim.Time) *SimTransport {
	if latency < 0 {
		panic(fmt.Sprintf("core: negative transport latency %v", latency))
	}
	return &SimTransport{sim: s, latency: latency}
}

// SetFaults arms a fault process on the transport (nil disarms).
func (t *SimTransport) SetFaults(f *pcie.ChannelFaults) { t.faults = f }

// Send conveys msg after the configured latency. A message sent while no
// receiver is installed is counted in Dropped instead of vanishing.
func (t *SimTransport) Send(msg Message) {
	t.sent++
	msg.Sum = msg.PayloadSum()
	v := t.faults.Apply(t.sim.Now())
	if v.Drop {
		t.faultLost++
		return
	}
	if v.Corrupt {
		msg, _ = msg.CorruptPayload(v.CorruptMask).(Message)
	}
	for i := 0; i < v.Copies; i++ {
		t.sim.After(t.latency+v.Delay, func() {
			if t.recv == nil {
				t.dropped++
				return
			}
			if msg.Sum != 0 && msg.Sum != msg.PayloadSum() {
				t.corruptLost++
				return
			}
			t.recv(msg)
		})
	}
}

// SetReceiver installs the message consumer.
func (t *SimTransport) SetReceiver(fn func(Message)) { t.recv = fn }

// Sent returns the number of messages sent.
func (t *SimTransport) Sent() uint64 { return t.sent }

// Dropped returns messages discarded because no receiver was installed.
func (t *SimTransport) Dropped() uint64 { return t.dropped }

// FaultLost returns messages consumed by the fault process.
func (t *SimTransport) FaultLost() uint64 { return t.faultLost }

// CorruptDropped returns arrivals discarded on checksum mismatch.
func (t *SimTransport) CorruptDropped() uint64 { return t.corruptLost }
