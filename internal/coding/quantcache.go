package coding

// QuantCache and QuantCached are what remains of the retired per-model
// quantization cache: the phase and TTFS encoders now quantize into
// their own scratch on every Reset, and nothing implements QuantCached.
// They stay because the frozen benchmark names them: its ladder
// type-asserts an encoder to QuantCached.
type QuantCache struct{}

type QuantCached interface{ SetQuantCache(*QuantCache) }
