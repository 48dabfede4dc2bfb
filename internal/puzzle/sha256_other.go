//go:build !amd64 || purego

package puzzle

// balloonHash stores H(le64(cnt) ‖ a ‖ b) in dst, or H(le64(cnt) ‖ a)
// when b is nil; dst may alias a or b.
func balloonHash(dst *[balloonBlockSize]byte, cnt uint64, a, b *[balloonBlockSize]byte) {
	balloonHashStaged(dst, cnt, a, b)
}
