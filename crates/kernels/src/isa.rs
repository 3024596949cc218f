//! Run-time instruction-set detection: the crate's one dispatch.
//!
//! Every public kernel resolves an [`Isa`] once per call and hands it to the
//! body selector of its family (`distance::scan`, `crc::extend`). The levels
//! form a ladder — each includes the ones below it — so a single detection
//! serves the Hamming bodies and the CRC bodies alike.

/// The instruction-set levels a kernel body is compiled for, lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    /// Baseline code of the compilation target, no run-time requirement.
    Portable,
    /// x86-64 with SSE4.2 (the `crc32` instruction) and POPCNT.
    #[cfg(target_arch = "x86_64")]
    Sse42,
    /// [`Level::Sse42`] plus AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// [`Level::Avx2`] plus AVX-512 F, BW and VPOPCNTDQ.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Proof that the running CPU supports a [`Level`]: the field is private and
/// only [`Isa::detect`] and the test-only `Isa::supported` construct a value,
/// each after the run-time feature checks of that level. The `unsafe` calls
/// into `#[target_feature]` bodies rest on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa(Level);

impl Isa {
    /// The highest level the running CPU supports.
    #[inline]
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("sse4.2") && has!("popcnt") {
                if !has!("avx2") {
                    return Isa(Level::Sse42);
                }
                if has!("avx512f") && has!("avx512bw") && has!("avx512vpopcntdq") {
                    return Isa(Level::Avx512);
                }
                return Isa(Level::Avx2);
            }
        }
        Isa(Level::Portable)
    }

    /// Every level the running CPU supports, lowest first — what the tests
    /// iterate so that no compiled-in body goes unchecked on a capable host.
    #[cfg(test)]
    pub(crate) fn supported() -> impl Iterator<Item = Isa> {
        let top = Isa::detect().level();
        [
            Level::Portable,
            #[cfg(target_arch = "x86_64")]
            Level::Sse42,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2,
            #[cfg(target_arch = "x86_64")]
            Level::Avx512,
        ]
        .into_iter()
        .filter(move |&level| level <= top)
        .map(Isa)
    }

    /// The level this value vouches for.
    #[inline]
    pub(crate) fn level(self) -> Level {
        self.0
    }
}
