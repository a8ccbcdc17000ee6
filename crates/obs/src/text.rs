//! Text building without the formatting machinery, for the strings the
//! obs pipeline writes once per span: span labels and the Chrome export's
//! byte buffer.

/// Where these writers append: the Chrome export's buffer, or a span
/// label on the stack.
pub(crate) trait ByteSink {
    fn push_bytes(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn push_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// `v` in decimal, as `u64::to_string` prints it, in the tail of `digits`.
fn uint_digits(digits: &mut [u8; 20], mut v: u64) -> &[u8] {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &digits[at..]
}

/// Appends `v` in decimal, as `u64::to_string` prints it.
pub(crate) fn push_uint(out: &mut impl ByteSink, v: u64) {
    out.push_bytes(uint_digits(&mut [0; 20], v));
}

/// Appends an id as its `Display` prints it: `prefix`, then `index` in
/// decimal.
pub(crate) fn push_id(out: &mut impl ByteSink, prefix: &str, index: usize) {
    out.push_bytes(prefix.as_bytes());
    push_uint(out, index as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_sim::FunctionId;

    #[test]
    fn digits_and_ids_print_as_display_does() {
        for v in [0, 7, 10, 99, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            push_uint(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
        for index in [0, 3, 41] {
            let f = FunctionId::new(index);
            let mut out = Vec::new();
            push_id(&mut out, FunctionId::PREFIX, f.index());
            assert_eq!(out, f.to_string().as_bytes());
        }
    }
}
