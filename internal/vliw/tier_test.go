package vliw

import (
	"encoding/json"
	"testing"
)

func TestTierStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		tier Tier
		name string
	}{
		{TierChecked, "checked"},
		{TierFast, "fast"},
		{TierSafe, "safe"},
		{TierNative, "native"},
	} {
		if got := tc.tier.String(); got != tc.name {
			t.Errorf("%d.String() = %q, want %q", int(tc.tier), got, tc.name)
		}
		parsed, err := ParseTier(tc.name)
		if err != nil || parsed != tc.tier {
			t.Errorf("ParseTier(%q) = %v, %v, want %v", tc.name, parsed, err, tc.tier)
		}
	}
	if parsed, err := ParseTier(""); err != nil || parsed != TierChecked {
		t.Errorf("ParseTier(\"\") = %v, %v, want checked", parsed, err)
	}
	if _, err := ParseTier("turbo"); err == nil {
		t.Error("ParseTier accepted an unknown tier name")
	}
}

func TestTierJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal(TierSafe)
	if err != nil || string(b) != `"safe"` {
		t.Fatalf("Marshal(TierSafe) = %s, %v, want \"safe\"", b, err)
	}
	var tr Tier
	if err := json.Unmarshal([]byte(`"native"`), &tr); err != nil || tr != TierNative {
		t.Fatalf("Unmarshal(\"native\") = %v, %v", tr, err)
	}
	if err := json.Unmarshal([]byte(`null`), &tr); err != nil || tr != TierChecked {
		t.Fatalf("Unmarshal(null) = %v, %v, want checked", tr, err)
	}
	if err := json.Unmarshal([]byte(`"warp"`), &tr); err == nil {
		t.Fatal("Unmarshal accepted an unknown tier name")
	}
}
