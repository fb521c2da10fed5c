#!/usr/bin/env python3
"""sym.py <binary> <prof.out> [top]: fold prof.c samples three ways through
`addr2line -f -C -i` — by innermost (inlined) function, by real (outermost,
non-inlined) symbol, and by crates/ source line. Needs `debug = true`."""
import collections
import subprocess
import sys

binary, prof = sys.argv[1], sys.argv[2]
top = int(sys.argv[3]) if len(sys.argv) > 3 else 25
words = open(prof).read().split()
base, addrs = int(words[1], 16), [int(a, 16) for a in words[2:]]
# Samples outside the binary (libc, vdso, the shim) keep their raw address.
rel = [hex(a - base) if a >= base else hex(a) for a in addrs]
out = subprocess.run(["addr2line", "-f", "-C", "-i", "-a", "-e", binary] + rel,
                     capture_output=True, text=True, check=True).stdout.splitlines()
# `-a` prints each address before its frames; a frame is two lines, the
# function and its file:line, innermost first.
samples, i = [], 0
while i < len(out):
    if out[i].startswith("0x"):
        samples.append([])
        i += 1
    else:
        samples[-1].append((out[i], out[i + 1]))
        i += 2
inner, real, src = (collections.Counter() for _ in range(3))
for frames in filter(None, samples):
    inner[frames[0][0]] += 1
    real[frames[-1][0]] += 1
    where = next((w for _, w in frames if "/crates/" in w), frames[0][1])
    src[where.split("/crates/")[-1].split(" ")[0]] += 1
for title, table in (("innermost function", inner), ("real symbol", real),
                     ("crates/ source line", src)):
    print(f"== by {title} ({len(addrs)} samples)")
    for name, n in table.most_common(top):
        print(f"{100 * n / len(addrs):6.2f}% {n:7d}  {name}")
