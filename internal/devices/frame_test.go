package devices

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"androne/internal/geo"
)

// TestFrameRoundTrip is the wire format's property test: random frames,
// including non-finite and negative-zero positions, survive AppendFrame
// and DecodeFrame bit for bit.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64}
	randFloat := func() float64 {
		if rng.Intn(4) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	for i := 0; i < 500; i++ {
		w, h := rng.Intn(40), rng.Intn(40)
		want := Frame{
			Seq:    rng.Uint64(),
			Width:  w,
			Height: h,
			Position: geo.Position{
				LatLon: geo.LatLon{Lat: randFloat(), Lon: randFloat()},
				Alt:    randFloat(),
			},
			Time:   time.Unix(0, rng.Int63()-rng.Int63()),
			Pixels: make([]byte, w*h),
		}
		rng.Read(want.Pixels)
		prefix := []byte("prefix")
		b := AppendFrame(prefix, want)
		if string(b[:len(prefix)]) != "prefix" || len(b) != len(prefix)+frameHeaderLen+w*h {
			t.Fatalf("frame %d: AppendFrame wrote %d bytes after the prefix, want %d", i, len(b)-len(prefix), frameHeaderLen+w*h)
		}
		got, err := DecodeFrame(b[len(prefix):])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Width != want.Width || got.Height != want.Height ||
			math.Float64bits(got.Position.Lat) != math.Float64bits(want.Position.Lat) ||
			math.Float64bits(got.Position.Lon) != math.Float64bits(want.Position.Lon) ||
			math.Float64bits(got.Position.Alt) != math.Float64bits(want.Position.Alt) ||
			got.Time != want.Time || string(got.Pixels) != string(want.Pixels) {
			t.Fatalf("frame %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// frameBytes is a wire header with the given dimensions and n pixels.
func frameBytes(w, h int64, n int) []byte {
	b := AppendFrame(nil, Frame{Seq: 7, Time: time.Unix(1700000000, 0)})
	binary.LittleEndian.PutUint64(b[8:], uint64(w))
	binary.LittleEndian.PutUint64(b[16:], uint64(h))
	return append(b, make([]byte, n)...)
}

// TestDecodeFrameRejects pins each input check: frame bytes come from
// another container and must not be trusted.
func TestDecodeFrameRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", frameBytes(2, 2, 4)[:frameHeaderLen-1]},
		{"negative width", frameBytes(-2, -2, 4)},
		{"negative height", frameBytes(2, -1, 0)},
		{"product overflows int", frameBytes(1<<32, 1<<32, 0)},
		{"max width", frameBytes(math.MaxInt64, 2, 0)},
		{"size exceeds payload", frameBytes(4, 4, 15)},
		{"payload exceeds size", frameBytes(4, 4, 17)},
		{"pixels without size", frameBytes(0, 0, 1)},
	} {
		if _, err := DecodeFrame(tc.b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
	if f, err := DecodeFrame(frameBytes(4, 4, 16)); err != nil || len(f.Pixels) != 16 {
		t.Fatalf("well-formed 4x4 frame: %v, %d pixels", err, len(f.Pixels))
	}
	if f, err := DecodeFrame(frameBytes(0, math.MaxInt64, 0)); err != nil || len(f.Pixels) != 0 {
		t.Fatalf("zero-width frame: %v, %d pixels", err, len(f.Pixels))
	}
}

// FuzzDecodeFrame feeds DecodeFrame arbitrary bytes: it must never panic,
// and whatever it accepts must be consistent and re-encode to the same
// bytes. Its seeds are the checked-in corpus in testdata/fuzz: a valid
// frame, an empty one, negative and overflowing sizes, and short headers
// and payloads.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("error %v does not wrap ErrBadFrame", err)
			}
			return
		}
		if fr.Width < 0 || fr.Height < 0 || len(fr.Pixels) != fr.Width*fr.Height {
			t.Fatalf("accepted an inconsistent frame: %dx%d with %d pixels", fr.Width, fr.Height, len(fr.Pixels))
		}
		if again := AppendFrame(nil, fr); string(again) != string(b) {
			t.Fatalf("re-encoding changed the bytes:\n got %x\nwant %x", again, b)
		}
	})
}
