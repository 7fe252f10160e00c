package coding

// QuantCache and QuantCached are what remains of the retired per-model
// quantization cache: the phase and TTFS encoders now quantize into
// their own scratch on every Reset, and nothing implements QuantCached.
// The benchmark's ladder still names both, so they stay until ROADMAP
// item 1 deletes them alongside that reference.
type QuantCache struct{}

type QuantCached interface{ SetQuantCache(*QuantCache) }
