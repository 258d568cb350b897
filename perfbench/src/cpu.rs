//! Which processor the calling thread runs on. The standard library has no
//! call for it; the C library it links has.

/// Room for 1024 processors, the size the C library's `cpu_set_t` has.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut Mask) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const Mask) -> i32;
}

/// The processors the calling thread may run on; none if the host will not
/// say.
pub fn allowed() -> Vec<usize> {
    let mut mask: Mask = [0; 16];
    // SAFETY: the pointer is to a live `Mask` of the size passed with it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..64 * mask.len())
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread, and the threads and processes it starts
/// from now on, to `cpus`. False if the host refused; nothing changed then.
pub fn confine_to(cpus: &[usize]) -> bool {
    let mut mask: Mask = [0; 16];
    for &c in cpus {
        if let Some(word) = mask.get_mut(c / 64) {
            *word |= 1 << (c % 64);
        }
    }
    // SAFETY: as above; the kernel only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), &mask) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_can_be_confined_and_released() {
        let all = allowed();
        assert!(!all.is_empty());
        assert!(confine_to(&all[..1]));
        assert_eq!(allowed(), all[..1]);
        assert!(confine_to(&all));
        assert_eq!(allowed(), all);
    }
}
