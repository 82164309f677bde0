package chaos

import (
	"tcfpram/internal/codegen"
	"tcfpram/internal/isa"
)

// commitPrograms are tcfbench's three commit-bound kernels (bench/gen:
// scatter-crcw, histogram, scan) at small thickness, still thick enough for
// mem.Shared's parallel resolution to engage, plus the same traffic from
// several flows at once, whose arms land on different groups — their runs
// reach the combiners out of key order — and "routes", whose arms between
// them put every kind of run into one step: a unit-stride store, a stride-2
// store, two flows storing into overlapping ranges, a scatter, a NUMA bunch
// that loads back what it just stored, and madd and mpadd from two flows onto
// one word each. The lattice runs them on single-instruction: what a step
// commits must not depend on how its references were gathered, nor on the
// route its runs took.
var commitPrograms = map[string]string{
	"scatter-crcw": `
shared int dst[512] @ 1024;
func main() {
    #4096;
    for (int i = 0; i < 2; i += 1) {
        dst[((tid * 40503 + i * 77) ^ (tid >> 4)) & 511] = tid * 3 + i;
    }
    #512;
    print(radd(dst[tid]));
}`,
	"histogram": `
shared int hist[256] @ 1024;
shared int data[2048] @ 8192;
func main() {
    #2048;
    data[tid] = ((tid * 40503 + 11) ^ (tid >> 6)) & 255;
    for (int i = 0; i < 2; i += 1) {
        madd(&hist[(data[tid] + i * tid) & 255], 1 + i);
    }
    #256;
    print(radd(hist[tid] * (tid + 1)));
}`,
	"scan": `
shared int total @ 1024;
shared int out[2048] @ 2048;
func main() {
    #2048;
    for (int i = 0; i < 3; i += 1) {
        out[tid] = mpadd(&total, ((tid * 7 + i) ^ (tid >> 2)) & 1023);
    }
    print(radd(out[tid]));
    #1;
    print(total);
}`,
	"flows": `
shared int total @ 1024;
shared int hist[8] @ 1032;
shared int dst[16] @ 1048;
shared int out[384] @ 2048;
func main() {
    parallel {
        #64: work(); #64: work(); #64: work(); #64: work(); #64: work(); #64: work();
    }
    #384;
    print(radd(out[tid]));
    #1;
    print(total);
}
func work() {
    thick int slot = (fid - 1) * 64 + tid;
    for (int i = 0; i < 2; i += 1) {
        out[slot & 383] = mpadd(&total, (slot + i) & 15) + mpmax(&hist[7], slot);
        madd(&hist[(slot * 5) & 7], 1 + i);
        dst[(slot * 11) & 15] = slot + i;
    }
}`,
	"routes": `
shared int unit[256] @ 1024;
shared int strided[512] @ 1280;
shared int over[128] @ 1792;
shared int scat[64] @ 1920;
shared int chain[16] @ 1984;
shared int total @ 2000;
shared int word @ 2001;
shared int out[128] @ 2048;
func main() {
    parallel {
        #128: dense();
        #128: stride2();
        #96: overlap(0);
        #96: overlap(32);
        #64: scatter();
        #1: bunch();
        #64: combine(0);
        #64: combine(64);
    }
    #512;
    print(radd(strided[tid] * (tid + 1)));
    #256;
    print(radd(unit[tid] * (tid + 1)));
    #128;
    print(radd(over[tid] * (tid + 1)) + radd(out[tid]));
    #64;
    print(radd(scat[tid] * (tid + 1)));
    #16;
    print(radd(chain[tid] * (tid + 1)));
    #1;
    print(total);
    print(word);
}
func dense() {
    for (int i = 0; i < 4; i += 1) {
        unit[tid + 128 * (i & 1)] = tid * 3 + i;
    }
}
func stride2() {
    for (int i = 0; i < 4; i += 1) {
        strided[tid * 2 + (i & 1)] = tid + i * 100;
    }
}
func overlap(off) {
    for (int i = 0; i < 4; i += 1) {
        over[off + tid] = off * 1000 + tid + i;
    }
}
func scatter() {
    for (int i = 0; i < 4; i += 1) {
        scat[(tid * 37 + i * 11) & 63] = tid + i;
    }
}
func bunch() {
    #1/8;
    for (int i = 0; i < 8; i += 1) {
        chain[i] = i * 7 + 1;
        chain[i + 8] = chain[i] + chain[(i + 7) & 7];
    }
}
func combine(base) {
    for (int i = 0; i < 4; i += 1) {
        out[base + tid] = mpadd(&total, tid + i);
        madd(&word, 1 + i);
    }
}`,
}

// bankOffsetProgram combines through a thread-wise address register plus a
// non-zero offset, which codegen never emits (it folds an array's base into
// the register): at 128 lanes, a madd and an mpadd onto words offset + (5·tid
// & 15) of two arrays, whose prefixes are stored, so that the combiners read
// an address bank plus its offset where it lies.
func bankOffsetProgram() *codegen.Compiled {
	b := isa.NewBuilder("bank-offset")
	b.Label("main")
	b.SetThickImm(128)
	b.Id(isa.TID, isa.V(0))
	b.ALUI(isa.MUL, isa.V(1), isa.V(0), 5)
	b.ALUI(isa.AND, isa.V(1), isa.V(1), 15)
	b.Multi(isa.MADD, isa.V(1), 1024, isa.V(0))
	b.Prefix(isa.MPADD, isa.V(2), isa.V(1), 1040, isa.V(0))
	b.St(isa.V(0), 1100, isa.V(2))
	b.Halt()
	return &codegen.Compiled{Program: b.MustBuild()}
}
