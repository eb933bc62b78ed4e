package simd

import (
	"math/rand"
	"testing"
)

// TestFusedGtMaskMatchesComposedSequence cross-checks the fused kernels
// (GtMask, GtMaskEq and EqMask, hence every per-width kernel they
// dispatch to) against the literal five-step sequence (Load, Set1, CmpGt,
// MoveMask) for every lane width on random and clustered operands. The
// fused kernels take unsigned-order operands, the composed sequence
// signed lanes; the test biases accordingly.
func TestFusedGtMaskMatchesComposedSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	signMask := map[int]uint64{1: sign8, 2: sign16, 4: sign32, 8: sign64}
	laneMask := map[int]uint64{1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF, 8: ^uint64(0)}
	for _, w := range widths {
		for i := 0; i < 100000; i++ {
			var b [16]byte
			rng.Read(b[:])
			// ordered (unsigned-order) search pattern.
			ordered := rng.Uint64() & laneMask[w]
			if i%4 == 0 {
				// Take a lane value from b itself to hit equal lanes.
				lane := rng.Intn(16 / w)
				var u uint64
				for j := 0; j < w; j++ {
					u |= uint64(b[lane*w+j]) << (8 * uint(j))
				}
				ordered = u ^ (signMask[w] & laneMask[w] << 0) // stored lanes are signed; flip to unsigned order
				ordered &= laneMask[w]
			}
			s := NewSearch(w, ordered)
			got := s.GtMask(b[:])
			gotEq := s.EqMask(b[:])

			// Composed reference: signed lanes; the stored bytes already
			// are signed lane patterns, the search must be converted from
			// unsigned order back to a signed lane.
			signedSearch := (ordered ^ signMask[w]) & laneMask[w]
			reg := Load(b[:])
			searchReg := Set1Lane(w, signedSearch)
			want := MoveMaskEpi8(CmpGt(w, reg, searchReg))
			wantEq := MoveMaskEpi8(CmpEq(w, reg, searchReg))
			if got != want {
				t.Fatalf("width %d: fused gt %#04x, composed %#04x (b=%x ordered=%#x)",
					w, got, want, b, ordered)
			}
			if gotEq != wantEq {
				t.Fatalf("width %d: fused eq %#04x, composed %#04x (b=%x ordered=%#x)",
					w, gotEq, wantEq, b, ordered)
			}
			if m, eq := s.GtMaskEq(b[:]); m != want || eq != (wantEq != 0) {
				t.Fatalf("width %d: fused gt+eq (%#04x,%v), composed (%#04x,%v) (b=%x ordered=%#x)",
					w, m, eq, want, wantEq != 0, b, ordered)
			}
		}
	}
}

func TestSearchWidth(t *testing.T) {
	for _, w := range widths {
		if got := NewSearch(w, 0).Width(); got != w {
			t.Fatalf("width %d: got %d", w, got)
		}
	}
}
