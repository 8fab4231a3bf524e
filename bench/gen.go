package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
)

// numKeys is the keyed workload's key space. Rescales with >= 2 000 keys
// of state time out today (README, finding 1), so the benchmark stays at
// a size the rescale protocol completes.
const numKeys = 256

// keyTableLen is the length of the precomputed key-draw cycle. Drawing
// from a table keeps the spout's per-tuple cost flat (a Zipf draw is an
// exp and a log) and makes the reference per-key totals O(table).
const keyTableLen = 1 << 16

// generator owns everything a run derives from its seed: the key draw
// cycle and the payload bytes. Key names are fixed ("k0".."k255", rank =
// index) so the partition each key hashes to does not move with the seed;
// only the order of draws does.
type generator struct {
	seed     int64
	keys     [numKeys]string
	draws    []uint8        // key index of tuple seq is draws[seq % keyTableLen]
	perCycle [numKeys]int64 // occurrences of each key in one cycle
	payload  []byte         // template; the first 8 bytes carry the stamp
	stampKey uint64
}

func newGenerator(seed int64, payloadLen int) *generator {
	g := &generator{seed: seed, draws: make([]uint8, keyTableLen)}
	for i := range g.keys {
		g.keys[i] = "k" + strconv.Itoa(i)
	}
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.2, 1, numKeys-1)
	for i := range g.draws {
		k := uint8(z.Uint64())
		g.draws[i] = k
		g.perCycle[k]++
	}
	if payloadLen < 8 {
		payloadLen = 8
	}
	g.payload = make([]byte, payloadLen)
	for i := range g.payload {
		g.payload[i] = byte(r.Intn(256))
	}
	g.stampKey = r.Uint64()
	return g
}

// keyIndex is the key drawn for tuple seq.
func (g *generator) keyIndex(seq int64) int { return int(g.draws[seq&(keyTableLen-1)]) }

// stamp is the value the first 8 payload bytes of tuple seq must carry.
func (g *generator) stamp(seq int64) uint64 { return uint64(seq)*0x9E3779B97F4A7C15 ^ g.stampKey }

// fill writes tuple seq's payload into buf (len(buf) == len(g.payload)).
func (g *generator) fill(buf []byte, seq int64) {
	copy(buf[8:], g.payload[8:])
	binary.LittleEndian.PutUint64(buf, g.stamp(seq))
}

// payloadOK reports whether b is exactly tuple seq's payload.
func (g *generator) payloadOK(b []byte, seq int64) bool {
	if len(b) != len(g.payload) || binary.LittleEndian.Uint64(b) != g.stamp(seq) {
		return false
	}
	return bytes.Equal(b[8:], g.payload[8:])
}

// keyTotals is the reference computation for the keyed workload: how many
// of the first n tuples drew each key.
func (g *generator) keyTotals(n int64) [numKeys]int64 {
	var out [numKeys]int64
	cycles := n / keyTableLen
	for k := range out {
		out[k] = cycles * g.perCycle[k]
	}
	for _, k := range g.draws[:n%keyTableLen] {
		out[k]++
	}
	return out
}

// dueOffset is when tuple i of an open-loop phase is due, in nanoseconds
// after the phase epoch.
func dueOffset(i int64, rate float64) int64 { return int64(float64(i) * 1e9 / rate) }
