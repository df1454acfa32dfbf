package main

import (
	"fmt"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/rewrite"
)

// probeCodec times classfile.Parse and Encode on every class of s, in
// sorted order and once per arch, with the pipeline's filters run
// between the two so Encode sees a rewritten class. It also reports the
// share of Utf8 constants the filters made the lazy codec decode.
func probeCodec(s *suite, archs []string, newPipeline func() *rewrite.Pipeline) (map[string]float64, error) {
	p := newPipeline()
	var parse, encode time.Duration
	n := 0
	c0 := classfile.CodecStats()
	for _, arch := range archs {
		for _, name := range s.classNames() {
			start := time.Now()
			cf, err := classfile.Parse(s.origin[name])
			parse += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("probe: parsing %s: %w", name, err)
			}
			ctx := rewrite.NewContext()
			ctx.ClientArch = arch
			if err := p.ProcessClass(cf, ctx); err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
			start = time.Now()
			_, err = cf.Encode()
			encode += time.Since(start)
			cf.Release()
			if err != nil {
				return nil, fmt.Errorf("probe: encoding %s: %w", name, err)
			}
			n++
		}
	}
	c1 := classfile.CodecStats()
	return map[string]float64{
		"classfile.parse_us_per_class":  ratio(us(parse), float64(n)),
		"classfile.encode_us_per_class": ratio(us(encode), float64(n)),
		"classfile.lazy_decoded_ratio":  ratio(float64(c1.Utf8Decoded-c0.Utf8Decoded), float64(c1.Utf8Seen-c0.Utf8Seen)),
	}, nil
}
