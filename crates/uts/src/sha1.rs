//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! The UTS benchmark derives every node's descriptor by hashing its
//! parent's descriptor with the child index, so the tree's exact shape —
//! and therefore the published node counts we validate against — depends
//! on this being a bit-exact SHA-1. Not for security use; SHA-1 is
//! cryptographically broken, which is irrelevant here (UTS uses it as a
//! high-quality splittable RNG).

/// Streaming SHA-1 context.
#[derive(Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// Bytes processed so far.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Sha1 {
    /// Fresh context with the FIPS initial state.
    pub fn new() -> Self {
        Sha1 {
            h: [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().expect("64-byte block"));
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes, producing the 20-byte digest. The tail block is padded
    /// in one pass (`0x80`, zeros, the bit length); a tail longer than 55
    /// bytes leaves no room for the length and takes a second block.
    pub fn finish(mut self) -> [u8; 20] {
        let bit_len = self.len * 8;
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 20];
        for (i, w) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// One block: four 20-round stages over a 16-word circular schedule.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        let mut s = self.h;
        stage(&mut s, &mut w, 0, 0x5A82_7999, |b, c, d| d ^ (b & (c ^ d)));
        stage(&mut s, &mut w, 20, 0x6ED9_EBA1, |b, c, d| b ^ c ^ d);
        stage(&mut s, &mut w, 40, 0x8F1B_BCDC, |b, c, d| (b & c) | (d & (b | c)));
        stage(&mut s, &mut w, 60, 0xCA62_C1D6, |b, c, d| b ^ c ^ d);
        for (h, v) in self.h.iter_mut().zip(s) {
            *h = h.wrapping_add(v);
        }
    }
}

/// Rounds `first..first + 20` with boolean function `f` and constant `k`.
/// A round adds into `e` and rotates `b`, so five rounds with the words
/// renamed put every word back in its place and nothing is moved.
#[inline(always)]
fn stage(
    s: &mut [u32; 5],
    w: &mut [u32; 16],
    first: usize,
    k: u32,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    let [mut a, mut b, mut c, mut d, mut e] = *s;
    let mut round = |a: u32, b: &mut u32, c: u32, d: u32, e: &mut u32, i: usize| {
        *e = e
            .wrapping_add(a.rotate_left(5))
            .wrapping_add(f(*b, c, d))
            .wrapping_add(k)
            .wrapping_add(schedule(w, i));
        *b = b.rotate_left(30);
    };
    for i in (first..first + 20).step_by(5) {
        round(a, &mut b, c, d, &mut e, i);
        round(e, &mut a, b, c, &mut d, i + 1);
        round(d, &mut e, a, b, &mut c, i + 2);
        round(c, &mut d, e, a, &mut b, i + 3);
        round(b, &mut c, d, e, &mut a, i + 4);
    }
    *s = [a, b, c, d, e];
}

/// Schedule word `i`. From round 16 on it overwrites `w[i % 16]`, the
/// word of round `i - 16`, which no later round reads.
#[inline(always)]
fn schedule(w: &mut [u32; 16], i: usize) -> u32 {
    if i >= 16 {
        w[i & 15] =
            (w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15]).rotate_left(1);
    }
    w[i & 15]
}

/// One-shot digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut ctx = Sha1::new();
    ctx.update(data);
    ctx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-1 / RFC 3174 known-answer vectors.
    #[test]
    fn known_answer_vectors() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            hex(&sha1(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    /// The lengths UTS hashes: a 24-byte spawn input (the seed-19 root,
    /// `0x80` at byte 24) and the reference `rng_init`'s 20-byte input
    /// `00×16 ‖ BE(seed)`. Digests from an independent SHA-1 (Python's
    /// `hashlib`).
    #[test]
    fn uts_input_length_vectors() {
        let mut spawn_input: Vec<u8> = (0u8..16).collect();
        spawn_input.extend(19i32.to_be_bytes());
        spawn_input.extend(0i32.to_be_bytes());
        assert_eq!(hex(&sha1(&spawn_input)), "e4a7feeaecd928d2546e101ba9f0ef9bb453da44");
        let mut init_input = vec![0u8; 16];
        init_input.extend(19i32.to_be_bytes());
        assert_eq!(hex(&sha1(&init_input)), "c6988ab70cc9559ae4d6cba254e29a845a85f86b");
    }

    /// One million 'a's — the classic long-message vector.
    #[test]
    fn million_a_vector() {
        let mut ctx = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            ctx.update(&chunk);
        }
        assert_eq!(hex(&ctx.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    /// Splitting the input across arbitrary update boundaries must not
    /// change the digest.
    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..300).map(|i| (i * 7 % 251) as u8).collect();
        let want = sha1(&data);
        for split in [0usize, 1, 63, 64, 65, 128, 299] {
            let mut ctx = Sha1::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finish(), want, "split at {split}");
        }
    }

    /// Exactly-one-block and block-boundary padding edge cases.
    #[test]
    fn block_boundary_lengths() {
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xABu8; len];
            let mut ctx = Sha1::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finish(), sha1(&data), "len {len}");
        }
    }
}
