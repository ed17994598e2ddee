package workload

import "fmt"

// UnmarshalSpec decodes a versioned Spec document and validates it.
// Round-trip guarantee: UnmarshalSpec(MarshalSpec(s)) is
// reflect.DeepEqual to s for any valid spec built from registered
// pattern kinds.
func UnmarshalSpec(data []byte) (Spec, error) {
	var env specJSON
	if err := decodeStrict(data, &env); err != nil {
		return Spec{}, fmt.Errorf("workload: spec: %w", err)
	}
	if env.Version != CodecVersion {
		return Spec{}, fmt.Errorf("workload: spec version %d not supported (want %d)", env.Version, CodecVersion)
	}
	if len(env.Phases) == 0 {
		return Spec{}, fmt.Errorf("workload: spec %q has no phases", env.Name)
	}
	phases, err := UnmarshalPhases(env.Phases)
	if err != nil {
		return Spec{}, fmt.Errorf("workload: spec %q: %w", env.Name, err)
	}
	s := Spec{
		Name:         env.Name,
		Instructions: env.Instructions,
		Seed:         env.Seed,
		BaseOffset:   env.BaseOffset,
		Phases:       phases,
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
