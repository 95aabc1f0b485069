package sharedvm

// WrapPolicy lets a test interpose on s's policy: every index operation the
// skeleton or the policy's own Replace issues then goes through wrap's
// result.
func (s *Space) WrapPolicy(wrap func(Policy) Policy) { s.pol = wrap(s.pol) }
