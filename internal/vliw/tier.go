package vliw

import (
	"encoding/json"
	"fmt"
)

// Tier names one of the simulator's execution tiers. The tiers form a
// strict ladder of statically-discharged dynamic checking: each one runs
// the identical architectural semantics — exit value, output, and every
// Stats counter are bit-identical across tiers, the invariant the fuzz
// oracle enforces — on the one executor (the runs of words a program keeps
// returning to fused into regions, one micro-op stream each: native.go), and
// differs only in which checks a certificate has removed: a tier is a plan
// and two dynamic checks.
//
//	TierChecked  every dynamic check live (no certificate): the resource and
//	             write-race verdicts, every guard of the base plan
//	TierFast     the two verdicts removed (schedcheck Certificate)
//	TierSafe     + proven per-site guards deleted: the re-kinded plan
//	             (safecheck SafeCertificate)
//	TierNative   the safe tier under its former name
//
// The zero value is TierChecked, so an unset options field means "fully
// checked".
type Tier int

const (
	TierChecked Tier = iota
	TierFast
	TierSafe
	TierNative
)

var tierNames = [...]string{
	TierChecked: "checked",
	TierFast:    "fast",
	TierSafe:    "safe",
	TierNative:  "native",
}

func (t Tier) String() string {
	if t >= 0 && int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier maps a tier name ("checked", "fast", "safe", "native") to its
// Tier. The empty string parses as TierChecked, so optional flags and JSON
// fields need no special-casing.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "checked":
		return TierChecked, nil
	case "fast":
		return TierFast, nil
	case "safe":
		return TierSafe, nil
	case "native":
		return TierNative, nil
	}
	return 0, fmt.Errorf("unknown execution tier %q (want checked, fast, safe, or native)", s)
}

// MarshalJSON renders the tier by name: "tier":"safe".
func (t Tier) MarshalJSON() ([]byte, error) {
	if t < 0 || int(t) >= len(tierNames) {
		return nil, fmt.Errorf("cannot marshal invalid execution tier %d", int(t))
	}
	return json.Marshal(t.String())
}

// UnmarshalJSON accepts the tier name; null and "" mean TierChecked.
func (t *Tier) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*t = TierChecked
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("execution tier must be a string: %w", err)
	}
	v, err := ParseTier(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}
