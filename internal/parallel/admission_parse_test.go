package parallel

import (
	"strings"
	"testing"
)

func TestParsePriority(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Priority
		ok   bool
	}{
		{"", PriorityHigh, true}, // empty = default
		{"high", PriorityHigh, true},
		{"low", PriorityLow, true},
		{"High", PriorityHigh, false}, // names are case-sensitive
		{"LOW", PriorityHigh, false},
		{"urgent", PriorityHigh, false},
		{" low", PriorityHigh, false}, // no whitespace trimming
	} {
		got, err := ParsePriority(tc.in)
		if tc.ok {
			if err != nil {
				t.Errorf("ParsePriority(%q): unexpected error %v", tc.in, err)
			} else if got != tc.want {
				t.Errorf("ParsePriority(%q) = %v, want %v", tc.in, got, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParsePriority(%q) accepted, want rejection", tc.in)
			continue
		}
		// Rejection still returns the safe default alongside the error.
		if got != PriorityHigh {
			t.Errorf("ParsePriority(%q) returned %v with error, want PriorityHigh default", tc.in, got)
		}
		// The message quotes the input and the accepted vocabulary.
		for _, frag := range []string{`unknown priority "` + tc.in + `"`, `(want "high" or "low")`} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("ParsePriority(%q) error %q missing %q", tc.in, err, frag)
			}
		}
	}
}
