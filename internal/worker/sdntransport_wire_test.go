package worker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// readFrames takes n raw frames off a switch port, copied out of the
// buffers they arrived in.
func readFrames(t *testing.T, p *switchfabric.Port, n int) [][]byte {
	t.Helper()
	var out [][]byte
	deadline := time.Now().Add(5 * time.Second)
	for len(out) < n {
		if time.Now().After(deadline) {
			t.Fatalf("read %d of %d frames", len(out), n)
		}
		got, err := p.ReadBatch(nil, n-len(out), 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range got {
			out = append(out, bytes.Clone(fr))
		}
	}
	return out
}

func wantFrames(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d differs from the reference encoding\n got  %x\n want %x", what, i, got[i], want[i])
		}
	}
}

// sized builds a tuple whose length-prefixed record is exactly n bytes.
func sized(seq int64, n int) tuple.Tuple {
	overhead := 4 + len(tuple.Encode(tuple.New(tuple.Int(0), tuple.Bytes(nil))))
	pad := make([]byte, n-overhead)
	for i := range pad {
		pad[i] = byte(seq) + byte(i)
	}
	return tuple.New(tuple.Int(seq), tuple.Bytes(pad))
}

type everyFrame struct{}

func (everyFrame) Sample() (uint64, bool) { return 77, true }

// TestSendEncodesInPlace: encoding a tuple straight into its staging frame
// puts the same bytes on the wire as encoding it apart and packetizing the
// result — packet.EncodeTuples/EncodeSegment over tuple.Encode.
func TestSendEncodesInPlace(t *testing.T) {
	const maxPayload = 256
	_, base, sinks := newSwitchEnv(t, 2)
	srcAddr := base.Addr()
	dst2, dst3 := sinks[0].Addr(), sinks[1].Addr()
	to2 := Destination{Workers: []topology.WorkerID{2}}
	frame := func(dst packet.Addr, tuples ...tuple.Tuple) []byte {
		enc := make([][]byte, len(tuples))
		for i, tp := range tuples {
			enc[i] = tuple.Encode(tp)
		}
		return packet.EncodeTuples(dst, srcAddr, enc)
	}
	small := func(seq int64) tuple.Tuple { return sized(seq, 38) }

	t.Run("one destination", func(t *testing.T) {
		src := NewSDNTransport(1, 1, base.port, SDNTransportConfig{BatchSize: 1000, MaxPayload: maxPayload})
		exact := sized(10, maxPayload-2*38)  // fills the frame to the byte
		over := sized(11, maxPayload-2*38+1) // one byte too many
		huge := sized(12, 638)               // larger than any frame
		for _, tp := range []tuple.Tuple{small(0), small(1), exact} {
			_ = src.Send(to2, tp)
		}
		_ = src.Flush()
		for _, tp := range []tuple.Tuple{small(2), small(3), over, huge, small(4)} {
			_ = src.Send(to2, tp)
		}
		_ = src.Flush()

		want := [][]byte{
			frame(dst2, small(0), small(1), exact),
			frame(dst2, small(2), small(3)), // flushed to make room, before over
			frame(dst2, over),               // flushed ahead of the segment train
		}
		enc, chunk := tuple.Encode(huge), maxPayload-12
		for i := 0; i*chunk < len(enc); i++ {
			want = append(want, packet.EncodeSegment(dst2, srcAddr, packet.Segment{
				ID: 0, Index: uint16(i), Count: uint16((len(enc) + chunk - 1) / chunk),
				Data: enc[i*chunk : min((i+1)*chunk, len(enc))],
			}))
		}
		want = append(want, frame(dst2, small(4)))
		wantFrames(t, "unicast", readFrames(t, sinks[0].port, len(want)), want)
		if st := src.Stats(); st.Serializations != 8 || st.TuplesSent != 8 || st.FramesSent != uint64(len(want)) {
			t.Fatalf("stats %+v, want 8 serializations, 8 tuples, %d frames", st, len(want))
		}
	})

	t.Run("two destinations", func(t *testing.T) {
		src := NewSDNTransport(1, 1, base.port, SDNTransportConfig{BatchSize: 1000, MaxPayload: maxPayload})
		both := Destination{Workers: []topology.WorkerID{2, 3}}
		over := sized(21, maxPayload-2*38+1)
		for _, tp := range []tuple.Tuple{small(5), small(6), over} {
			_ = src.Send(both, tp)
		}
		_ = src.Flush()
		for i, dst := range []packet.Addr{dst2, dst3} {
			want := [][]byte{frame(dst, small(5), small(6)), frame(dst, over)}
			wantFrames(t, fmt.Sprintf("fan-out to %v", dst), readFrames(t, sinks[i].port, 2), want)
		}
		if st := src.Stats(); st.Serializations != 3 || st.TuplesSent != 6 {
			t.Fatalf("stats %+v, want 3 serializations for 6 tuples sent", st)
		}
	})

	t.Run("broadcast", func(t *testing.T) {
		src := NewSDNTransport(1, 1, base.port, SDNTransportConfig{BatchSize: 1000})
		_ = src.Send(Destination{Workers: []topology.WorkerID{2, 3}, Broadcast: true}, small(7))
		_ = src.Flush()
		for _, sink := range sinks {
			wantFrames(t, "broadcast", readFrames(t, sink.port, 1), [][]byte{frame(packet.Broadcast, small(7))})
		}
		if st := src.Stats(); st.Serializations != 1 || st.TuplesSent != 1 || st.FramesSent != 1 {
			t.Fatalf("stats %+v, want one serialization, one tuple, one frame", st)
		}
	})

	t.Run("traced", func(t *testing.T) {
		src := NewSDNTransport(1, 1, base.port, SDNTransportConfig{BatchSize: 1000, Sampler: everyFrame{}})
		_ = src.Send(to2, small(8))
		_ = src.Send(to2, small(9))
		_ = src.Flush()
		fr, err := packet.Decode(readFrames(t, sinks[0].port, 1)[0])
		if err != nil || fr.Trace == nil {
			t.Fatalf("traced frame: %+v, err %v", fr, err)
		}
		if h := fr.Trace.Hops[0]; fr.Trace.ID != 77 || h.Kind != packet.HopEmit || h.Actor != 1 || h.Detail != 2 {
			t.Fatalf("emit hop %+v of trace %d, want emit by worker 1 of 2 tuples in trace 77", h, fr.Trace.ID)
		}
		// The switch added its hops to the annex; the payload is untouched.
		wantFrames(t, "traced payload", [][]byte{packet.EncodeTuples(fr.Dst, fr.Src, fr.Tuples)},
			[][]byte{frame(dst2, small(8), small(9))})
	})
}

// TestRecvDropAccounting: a record that does not decode costs that tuple
// and one drop; a frame whose length prefixes do not parse costs the whole
// frame and one drop, including the records ahead of the fault.
func TestRecvDropAccounting(t *testing.T) {
	_, src, sinks := newSwitchEnv(t, 1)
	sink, dst := sinks[0], sinks[0].Addr()
	enc := func(seq int64) []byte { return tuple.Encode(tuple.New(tuple.Int(seq), tuple.String("ok"))) }
	bad := enc(1)
	bad[20] = 0x7F // the first value's kind byte
	if !src.port.WriteFrame(packet.EncodeTuples(dst, src.Addr(), [][]byte{enc(0), bad, enc(2)})) {
		t.Fatal("ring full")
	}
	got := recvN(t, sink, 2)
	if got[0].Field(0).AsInt() != 0 || got[1].Field(0).AsInt() != 2 {
		t.Fatalf("neighbours of the bad record: %v", got)
	}
	if d := sink.Stats().Dropped; d != 1 {
		t.Fatalf("dropped = %d after one bad record, want 1", d)
	}

	overrun := packet.EncodeTuples(dst, src.Addr(), [][]byte{enc(3), enc(4)})
	binary.LittleEndian.PutUint32(overrun[packet.HeaderLen+4+len(enc(3)):], 0xFFFF)
	if !src.port.WriteFrame(overrun) || !src.port.WriteFrame(packet.EncodeTuples(dst, src.Addr(), [][]byte{enc(5)})) {
		t.Fatal("ring full")
	}
	got = recvN(t, sink, 1)
	if len(got) != 1 || got[0].Field(0).AsInt() != 5 {
		t.Fatalf("after the unparsable frame: %v, want only tuple 5", got)
	}
	if st := sink.Stats(); st.Dropped != 2 || st.TuplesReceived != 3 {
		t.Fatalf("stats %+v, want 2 drops and 3 tuples received", st)
	}
}

// TestDecodedTuplesOutliveTheirFrame is the arena contract seen from the
// receive path: once a frame is decoded its buffer goes back to the pool and
// is overwritten by whatever comes next, and nothing a retained tuple holds
// may notice.
func TestDecodedTuplesOutliveTheirFrame(t *testing.T) {
	const n = 50
	batch := func(gen int) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{Stream: 3, ID: uint64(gen*1000 + i), Values: []tuple.Value{
				tuple.String(fmt.Sprintf("key-%d-%04d", gen, i)),
				tuple.Bytes([]byte{byte(gen), byte(i), 0xEE}),
				tuple.Int(int64(gen*1000 + i)),
			}}
		}
		return out
	}
	pk := packet.NewPacketizer(packet.WorkerAddr(1, 1), 0)
	frameOf := func(tuples []tuple.Tuple) []byte {
		for _, tp := range tuples {
			if ready := pk.Add(packet.WorkerAddr(1, 2), tuple.Encode(tp)); len(ready) != 0 {
				t.Fatal("batch does not fit one frame")
			}
		}
		return pk.FlushAll()[0]
	}
	tr := &SDNTransport{dpktz: packet.NewDepacketizer()}
	first := frameOf(batch(1))
	tr.inBuf = tr.decodeFrame(tr.inBuf, first)
	kept := append([]tuple.Tuple(nil), tr.inBuf...)
	views := make([][]byte, n) // the byte slices themselves, not just the tuples
	for i, tp := range kept {
		views[i] = tp.Field(1).AsBytes()
	}

	// The frame is recycled and the next batch lands in the same memory.
	second := frameOf(batch(2))
	if len(second) != len(first) {
		t.Fatalf("batches differ in size: %d vs %d bytes", len(first), len(second))
	}
	copy(first, second)
	packet.PutFrameBuf(second)
	tr.inBuf = tr.decodeFrame(tr.inBuf[:0], first)
	packet.PutFrameBuf(first)
	runtime.GC()
	runtime.GC()

	if len(kept) != n || len(tr.inBuf) != n {
		t.Fatalf("decoded %d then %d tuples, want %d each", len(kept), len(tr.inBuf), n)
	}
	for i, want := range batch(1) {
		if !kept[i].Equal(want) {
			t.Fatalf("retained tuple %d changed under its recycled frame: %v, want %v", i, kept[i], want)
		}
		if !bytes.Equal(views[i], want.Field(1).AsBytes()) {
			t.Fatalf("retained byte slice %d changed: %x", i, views[i])
		}
	}
	for i, want := range batch(2) {
		if !tr.inBuf[i].Equal(want) {
			t.Fatalf("second batch tuple %d: %v, want %v", i, tr.inBuf[i], want)
		}
	}
}

// FuzzFrameToTuples holds the one-pass receive walk to the reference it
// replaced: packet.Decode of the frame, then tuple.Decode of each record.
// Same tuples in the same order, and the same drops: one for a frame the
// reference rejects, one per record it cannot decode.
func FuzzFrameToTuples(f *testing.F) {
	src, dst := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	a := tuple.Encode(tuple.New(tuple.String("alpha"), tuple.Int(1), tuple.Bytes([]byte{1, 2, 3})))
	b := tuple.Encode(tuple.OnStream(7, tuple.Float(2.5), tuple.Bool(true), tuple.Nil()))
	badKind := bytes.Clone(a)
	badKind[20] = 0x7F
	plain := packet.EncodeTuples(dst, src, [][]byte{a, b})
	overrun := bytes.Clone(plain)
	binary.LittleEndian.PutUint32(overrun[packet.HeaderLen+4+len(a):], 0xFFFF)
	f.Add(plain)
	f.Add(packet.WithTrace(plain, packet.TraceAnnex{ID: 9, Hops: []packet.TraceHop{{Kind: packet.HopEmit, Actor: 1, Detail: 2, At: 3}}}))
	f.Add(packet.EncodeSegment(dst, src, packet.Segment{ID: 4, Index: 0, Count: 1, Data: a}))
	f.Add(packet.EncodeSegment(dst, src, packet.Segment{ID: 4, Index: 0, Count: 2, Data: a[:10]}))
	f.Add(packet.EncodeTuples(dst, src, nil))
	f.Add(overrun)
	f.Add(packet.EncodeTuples(dst, src, [][]byte{a, badKind, b}))
	f.Add(plain[:packet.HeaderLen-1])

	f.Fuzz(func(t *testing.T, raw []byte) {
		tr := &SDNTransport{dpktz: packet.NewDepacketizer()}
		tr.inBuf = tr.decodeFrame(tr.inBuf, raw)

		var want []tuple.Tuple
		var wantDropped uint64
		decode := func(enc []byte) {
			if tp, _, err := tuple.Decode(enc); err != nil {
				wantDropped++
			} else {
				want = append(want, tp)
			}
		}
		fr, err := packet.Decode(raw)
		switch {
		case err != nil:
			wantDropped = 1
		case fr.Segment != nil:
			ins, err := packet.NewDepacketizer().Feed(raw)
			if err != nil {
				wantDropped = 1
			}
			for _, in := range ins {
				decode(in.Data)
			}
		default:
			for _, enc := range fr.Tuples {
				decode(enc)
			}
		}

		if got := tr.dropped.Load(); got != wantDropped {
			t.Fatalf("one-pass walk counted %d drops, reference %d", got, wantDropped)
		}
		if len(tr.inBuf) != len(want) {
			t.Fatalf("one-pass walk yielded %d tuples, reference %d", len(tr.inBuf), len(want))
		}
		for i := range want {
			if !tr.inBuf[i].Equal(want[i]) {
				t.Fatalf("tuple %d: one-pass %v, reference %v", i, tr.inBuf[i], want[i])
			}
		}
	})
}
