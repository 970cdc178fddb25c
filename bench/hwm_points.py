#!/usr/bin/env python3
"""Peak resident set (VmHWM) of verlib_serve at three replication points.

Run from the root of a source checkout, after `dune build`:

    python3 bench/hwm_points.py [--serve EXE] [--keys 100000] \
        [--transfers 84000] [--runs 3]

Each point starts fresh servers (btree, keys 1..KEYS prefilled) and
reads /proc/PID/status once the point is reached:

- sync:      a -t 2 primary after it has served one SYNC;
- bootstrap: a -t 1 replica once its cold bootstrap from that primary
             holds every key;
- transfers: a -t 2 primary with no replica after TRANSFERS tokened
             MULTI/EXEC transfers (two writes each, one feed record
             each), pipelined 64 at a time by one connection.

Prints one line per point and run: `point run VmHWM_MB`.
"""
import argparse
import socket
import subprocess
import time


def spawn(exe, threads, keys, *extra):
    proc = subprocess.Popen(
        [exe, "-s", "btree", "-p", "0", "-t", str(threads), "-n", str(keys),
         "--stats", "none", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    for line in proc.stdout:
        if line.startswith("PORT "):
            return proc, int(line.split()[1])
    raise SystemExit("verlib_serve did not report a port")


def hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit(f"no VmHWM for {pid}")


def connect(port):
    s = socket.create_connection(("127.0.0.1", port))
    return s, s.makefile("rb")


def read_reply(rf):
    """One reply, skipped line by line (flat arrays only)."""
    line = rf.readline()
    if line.startswith(b"*"):
        for _ in range(int(line[1:])):
            rf.readline()
    return line


def point_sync(exe, keys):
    proc, port = spawn(exe, 2, keys, "--prefill", str(keys))
    try:
        s, rf = connect(port)
        s.sendall(b"SYNC\r\n")
        head = read_reply(rf)
        assert head == b"*%d\r\n" % (2 + 2 * keys), head
        s.close()
        return hwm_mb(proc.pid)
    finally:
        proc.kill()
        proc.wait()


def point_bootstrap(exe, keys):
    primary, pport = spawn(exe, 2, keys, "--prefill", str(keys))
    replica, rport = spawn(exe, 1, keys, "--replica-of", f"127.0.0.1:{pport}")
    try:
        s, rf = connect(rport)
        give_up = time.time() + 60
        while True:
            s.sendall(b"SIZE\r\n")
            if rf.readline() == b":%d\r\n" % keys:
                break
            if time.time() > give_up:
                raise SystemExit("replica did not bootstrap")
            time.sleep(0.05)
        s.close()
        return hwm_mb(replica.pid)
    finally:
        for p in (replica, primary):
            p.kill()
            p.wait()


def point_transfers(exe, keys, transfers):
    proc, port = spawn(exe, 2, keys, "--prefill", str(keys))
    try:
        s, rf = connect(port)
        base, bal, token = keys // 2, {}, 0
        while token < transfers:
            batch = []
            for _ in range(min(64, transfers - token)):
                token += 1
                i = token % 256
                a, b = base - 1 - i, base + 1 + i
                va, vb = bal.get(a, a) - 1, bal.get(b, b) + 1
                bal[a], bal[b] = va, vb
                batch.append(f"MULTI\r\nDEL {a}\r\nPUT {a} {va}\r\nDEL {b}\r\n"
                             f"PUT {b} {vb}\r\nEXEC {token}\r\n")
            s.sendall("".join(batch).encode())
            for _ in batch:
                for _ in range(5):
                    read_reply(rf)
                head = read_reply(rf)
                assert head == b"*5\r\n", head
        s.close()
        return hwm_mb(proc.pid)
    finally:
        proc.kill()
        proc.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", default="./_build/default/bin/verlib_serve.exe")
    ap.add_argument("--keys", type=int, default=100_000)
    ap.add_argument("--transfers", type=int, default=84_000)
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()
    points = [
        ("sync", lambda: point_sync(args.serve, args.keys)),
        ("bootstrap", lambda: point_bootstrap(args.serve, args.keys)),
        ("transfers", lambda: point_transfers(args.serve, args.keys, args.transfers)),
    ]
    for name, run in points:
        for r in range(args.runs):
            print(f"{name} {r} {run():.1f}", flush=True)


if __name__ == "__main__":
    main()
