package coreutils

// Shared helper routines used across the tool models, mirroring the real
// tree's lib/ (statically linked into every binary, so every program
// carries its own copy). Tools embed these snippets by string
// concatenation. The parse/format loops below are where the suite's path
// explosion lives.
//
// Behavioural note: these are exact extractions of the loops they replace
// — the conformance and corpus tests hold the tools' input/output
// behaviour fixed across the refactor.

// libArgLen: strlen over an argument (lib/strnlen in the real tree).
const libArgLen = `
int arg_len(int arg) {
    int n = 0;
    while (argchar(arg, n) != 0) {
        n++;
    }
    return n;
}
`

// libPutArg: write an argument's characters from an offset (fputs).
const libPutArg = `
void put_arg(int arg, int start) {
    for (int i = start; argchar(arg, i) != 0; i++) {
        putchar(argchar(arg, i));
    }
}
`

// libOptFlag: true when the argument is exactly "-f" for the given flag
// byte (the one-letter fast path of getopt).
const libOptFlag = `
bool opt_flag(int arg, byte f) {
    if (argchar(arg, 0) != '-') {
        return false;
    }
    if (argchar(arg, 1) != f) {
        return false;
    }
    if (argchar(arg, 2) != 0) {
        return false;
    }
    return true;
}
`

// libArgsSame: byte-wise equality of two arguments (streq on argv).
const libArgsSame = `
bool args_same(int x, int y) {
    bool same = true;
    for (int i = 0; same; i++) {
        byte a = argchar(x, i);
        byte b = argchar(y, i);
        if (a != b) {
            same = false;
        }
        if (a == 0 || b == 0) {
            break;
        }
    }
    return same;
}
`

// libParseScan: strtol-style scan from an offset. Digits accumulate into
// out[0]; junk characters are noted but the scan continues (validation
// happens once at the end, so both branch outcomes survive every
// character — the paper's §5.4 sleep structure). out[1] is 1 iff at
// least one digit and no junk was seen.
const libParseScan = `
void parse_scan(int arg, int start, int out[2]) {
    int v = 0;
    bool any = false;
    bool bad = false;
    for (int i = start; argchar(arg, i) != 0; i++) {
        byte d = argchar(arg, i);
        if (d >= '0' && d <= '9') {
            v = v * 10 + toint(d - '0');
            any = true;
        } else {
            bad = true;
        }
    }
    out[0] = v;
    out[1] = 0;
    if (any && !bad) {
        out[1] = 1;
    }
}
`

// libParseDecOr: strict decimal parse; the first non-digit prints err and
// halts with status 1. An empty or absent argument parses as 0.
const libParseDecOr = `
int parse_dec_or(int arg, byte err) {
    int v = 0;
    for (int i = 0; argchar(arg, i) != 0; i++) {
        byte d = argchar(arg, i);
        if (d < '0' || d > '9') {
            putchar(err);
            halt(1);
        }
        v = v * 10 + toint(d - '0');
    }
    return v;
}
`

// libIsSpace: the suite's whitespace class (isblank plus newline).
const libIsSpace = `
bool is_space(byte c) {
    if (c == ' ' || c == '\n' || c == '\t') {
        return true;
    }
    return false;
}
`
