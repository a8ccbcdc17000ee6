//! Text building without the formatting machinery, for the strings the
//! obs pipeline writes once per span: span labels and the Chrome export.

use faasflow_sim::FunctionId;

/// Appends `v` in decimal, as `u64::to_string` prints it.
pub(crate) fn push_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// How many bytes [`push_uint`] appends for `v`.
pub(crate) fn uint_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// How many bytes [`push_function`] appends for `function`.
pub(crate) fn function_len(function: FunctionId) -> usize {
    FunctionId::PREFIX.len() + uint_len(function.index() as u64)
}

/// Appends `function` as its `Display` prints it.
pub(crate) fn push_function(out: &mut String, function: FunctionId) {
    out.push_str(FunctionId::PREFIX);
    push_uint(out, function.index() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_and_ids_print_as_display_does() {
        for v in [0, 7, 10, 99, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            push_uint(&mut out, v);
            assert_eq!(out, v.to_string());
            assert_eq!(uint_len(v), out.len());
        }
        for index in [0, 3, 41] {
            let mut out = String::new();
            push_function(&mut out, FunctionId::new(index));
            assert_eq!(out, FunctionId::new(index).to_string());
            assert_eq!(function_len(FunctionId::new(index)), out.len());
        }
    }
}
