package core

import (
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// Transport carries coordination messages from one island toward the
// controller (and back). Implementations define latency behaviour; the
// prototype's transport is the PCIe mailbox.
type Transport interface {
	// Send conveys msg to the far side, invoking the receiver installed
	// with SetReceiver there.
	Send(msg Message)
	// SetReceiver installs the far side's message consumer.
	SetReceiver(fn func(Message))
}

// MailboxTransport adapts one direction of a pcie.Mailbox as a Transport:
// device->host for the IXP agent's uplink, host->device for the downlink.
type MailboxTransport struct {
	mb     *pcie.Mailbox
	toHost bool

	nonCoord uint64
	corrupt  uint64
}

// NewDeviceUplink returns the IXP-side transport sending toward the host
// (where the controller lives).
func NewDeviceUplink(mb *pcie.Mailbox) *MailboxTransport {
	return &MailboxTransport{mb: mb, toHost: true}
}

// NewHostDownlink returns the host-side transport sending toward the device.
func NewHostDownlink(mb *pcie.Mailbox) *MailboxTransport {
	return &MailboxTransport{mb: mb, toHost: false}
}

// NonCoordDropped returns how many non-coordination messages arrived on the
// mailbox and were discarded.
func (t *MailboxTransport) NonCoordDropped() uint64 { return t.nonCoord }

// CorruptDropped returns how many arrivals failed checksum verification
// and were discarded. Nil-safe.
func (t *MailboxTransport) CorruptDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.corrupt
}

// Send conveys msg over the mailbox after its one-way latency, stamping
// the frame checksum so in-flight corruption is detectable on arrival.
func (t *MailboxTransport) Send(msg Message) {
	msg.Sum = msg.PayloadSum()
	if t.toHost {
		t.mb.SendToHost(msg)
	} else {
		t.mb.SendToDevice(msg)
	}
}

// SetReceiver installs the consumer on the receiving end of this direction.
// A payload that is not a coordination message, or one whose checksum no
// longer matches its contents, is counted and dropped — a hostile or
// corrupt mailbox message must degrade the control plane, never drive it.
func (t *MailboxTransport) SetReceiver(fn func(Message)) {
	h := func(m pcie.Message) {
		cm, ok := m.(Message)
		if !ok {
			t.nonCoord++
			return
		}
		if cm.Sum != 0 && cm.Sum != cm.PayloadSum() {
			t.corrupt++
			return
		}
		fn(cm)
	}
	if t.toHost {
		t.mb.OnHostReceive(h)
	} else {
		t.mb.OnDeviceReceive(h)
	}
}

// SimTransport is a standalone latency-modeled transport used for
// scalability studies of the coordination mechanisms (the paper's future
// work on large-scale multicores): it delivers messages after a fixed
// one-way latency without a PCIe device behind it. An optional
// pcie.ChannelFaults process makes it faultable the same way the mailbox
// is, so Mesh runs can be chaos-tested too.
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
