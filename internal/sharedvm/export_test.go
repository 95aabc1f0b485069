package sharedvm

// WrapPolicy lets a test interpose on s's policy: every index operation the
// skeleton or the policy's own Replace issues then goes through wrap's
// result.
func (s *Space) WrapPolicy(wrap func(Policy) Policy) { s.pol = wrap(s.pol) }

// ScanCap returns the capacity of the span list the fork family's
// RevokeFilePages scan reuses, 0 if it has none.
func (s *Space) ScanCap() int {
	if s.fam.scan == nil {
		return 0
	}
	return cap(s.fam.scan.spans)
}
