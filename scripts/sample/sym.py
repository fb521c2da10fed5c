#!/usr/bin/env python3
"""sym.py <binary> <prof.out>... [top]: fold prof.c samples three ways through
`addr2line -f -C -i` — by innermost (inlined) function, by real (outermost,
non-inlined) symbol, and by crates/ source line. Needs `debug = true`.

Several prof.out files (many runs of one binary, or the runs of a benchmark
list) fold into one table: each file is rebased by its own `base` line, so
runs loaded at different addresses add up."""
import collections
import subprocess
import sys

binary, profs = sys.argv[1], sys.argv[2:]
top = int(profs.pop()) if len(profs) > 1 and profs[-1].isdigit() else 25
# Samples outside the binary (libc, vdso, the shim) keep their raw address.
rel = collections.Counter()
for prof in profs:
    words = open(prof).read().split()
    base = int(words[1], 16)
    rel.update(hex(a - base) if a >= base else hex(a)
               for a in (int(w, 16) for w in words[2:]))
total = sum(rel.values())
addrs = list(rel)
out = subprocess.run(["addr2line", "-f", "-C", "-i", "-a", "-e", binary] + addrs,
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
for addr, frames in zip(addrs, samples):
    if not frames:
        continue
    n = rel[addr]
    inner[frames[0][0]] += n
    real[frames[-1][0]] += n
    where = next((w for _, w in frames if "/crates/" in w), frames[0][1])
    src[where.split("/crates/")[-1].split(" ")[0]] += n
for title, table in (("innermost function", inner), ("real symbol", real),
                     ("crates/ source line", src)):
    print(f"== by {title} ({total} samples, {len(profs)} file(s))")
    for name, n in table.most_common(top):
        print(f"{100 * n / total:6.2f}% {n:7d}  {name}")
