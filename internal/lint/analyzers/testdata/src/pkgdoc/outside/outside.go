package outside

// Packages outside internal/ are out of scope, so this one needs no doc.
