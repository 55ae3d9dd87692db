package core

import "repro/internal/pcie"

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
