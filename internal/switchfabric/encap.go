package switchfabric

import (
	"encoding/binary"
	"errors"

	"typhoon/internal/packet"
)

// Tunnel encapsulation: frames leaving through a tunnel port are wrapped
// with the destination host name chosen by the set_tun_dst action, hiding
// the Typhoon frame format from the underlying network exactly as the
// prototype's host-level TCP tunnels do (§3.3.1).
//
// Layout: hostLen(2, big endian) host frame.

// ErrBadEncap is returned for malformed tunnel encapsulation.
var ErrBadEncap = errors.New("switchfabric: malformed tunnel encapsulation")

// EncapTunnel wraps a frame with its tunnel destination host in a pooled
// buffer, whose headroom covers a full frame plus the host name. The result
// is uniquely owned: the tunnel endpoint recycles it once the inner frame is
// on the wire.
func EncapTunnel(host string, frame []byte) []byte {
	out := binary.BigEndian.AppendUint16(packet.GetFrameBuf(), uint16(len(host)))
	out = append(out, host...)
	return append(out, frame...)
}

// DecapTunnel splits an encapsulated frame into destination host and inner
// frame. Both alias raw.
func DecapTunnel(raw []byte) (host, frame []byte, err error) {
	if len(raw) < 2 {
		return nil, nil, ErrBadEncap
	}
	n := int(binary.BigEndian.Uint16(raw))
	if len(raw) < 2+n {
		return nil, nil, ErrBadEncap
	}
	return raw[2 : 2+n], raw[2+n:], nil
}
