//go:build amd64 && !purego

package puzzle

// useSHANI selects the SHA-NI kernel for the balloon function's
// fixed-shape messages. The kernel needs the SHA extensions plus SSSE3
// (PSHUFB, PALIGNR) and SSE4.1 (PBLENDW); checked once at start-up.
var useSHANI = hasSHANI()

func hasSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		ssse3  = 1 << 9  // leaf 1 ECX
		sse41  = 1 << 19 // leaf 1 ECX
		shaExt = 1 << 29 // leaf 7 EBX
	)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&shaExt != 0
}

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func sha256Balloon(out *[32]byte, cnt uint64, a *[32]byte, b *[32]byte)

// balloonHash stores H(le64(cnt) ‖ a ‖ b) in dst, or H(le64(cnt) ‖ a)
// when b is nil; dst may alias a or b.
func balloonHash(dst *[balloonBlockSize]byte, cnt uint64, a, b *[balloonBlockSize]byte) {
	if useSHANI {
		sha256Balloon(dst, cnt, a, b)
		return
	}
	balloonHashStaged(dst, cnt, a, b)
}
